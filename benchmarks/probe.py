"""Speed probe: a fixed piece of pure-Python work timed between instances.

On a shared machine the speed of the same code drifts by a fifth or more
within a minute, and the drift comes from the hardware, not from steal
time, so CPU time drifts with it. The benchmark therefore times this probe
right before and right after every measured interval and reports the
interval at the nominal probe speed:

    reported = measured * PROBE_REF_S / mean(probe before, probe after)

The probe does the two kinds of work that dominate gridlift's workloads,
in about equal time: Fraction sums with fraction-free 6x6 determinants on
wide integers (the exact kernel behind lift and round), and facet-side
tests of integer points as in an all-pairs convexity check (the global
certificate). The two kinds do not slow down alike on a busy machine, so
the probe mixes them. It calls no gridlift code, so a change to the
program cannot move it. It tracks the drift only in part: code with a
large working set, such as d3-random-large, still drifts by about a tenth.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Nominal time of one probe_once(), about what a quiet shared 2-core x86_64
# machine measures under CPython 3.11. It only fixes the unit of reported
# times.
PROBE_REF_S = 0.003


def _bareiss(a: list[list[int]]) -> int:
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


# fixed integer points in the range of d=3 output coordinates
_POINTS = [
    ((i * 7919) % 100003 * 1000, (i * 104729) % 100019 * 1000, (i * i * 31) % 1000033 * 10**5)
    for i in range(120)
]


def _facet_sides(points: list[tuple[int, int, int]], first: int) -> int:
    """Vertices above the plane through three consecutive points."""
    pts = points[first : first + 3]
    cof = []
    for i in range(4):
        rows = [[p[r] for p in pts] for r in range(3) if r != i]
        if i < 3:
            rows.append([1, 1, 1])
        (a, b, c), (d, e, f), (g, h, k) = rows
        minor = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        cof.append(minor if (i + 3) % 2 == 0 else -minor)
    values = {
        vid: sum(cof[i] * p[i] for i in range(3)) + cof[3]
        for vid, p in enumerate(points)
        if not first <= vid < first + 3
    }
    return sum(1 for v in values.values() if v > 0)


def probe_once() -> int:
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(i, i * i + 1)
    acc = f.denominator
    for r in range(20):
        m = [[(i * 7 + j * 13 + r + 1) ** 11 % (10**25 + 7) for j in range(6)] for i in range(6)]
        acc ^= _bareiss(m)
    for first in range(9):
        acc += _facet_sides(_POINTS, first)
    return acc


def probe(seconds: float) -> float:
    """Median time of probe_once() over about ``seconds`` of repetitions."""
    clock = time.perf_counter
    times = []
    end = clock() + seconds
    while True:
        start = clock()
        probe_once()
        now = clock()
        times.append(now - start)
        if now >= end:
            return statistics.median(times)
