"""gridlift benchmark: certified-realization latency on a fixed corpus.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload d3-random-large --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each instance starts after the
previous one has finished, and nothing runs in parallel. Per instance the
public entry points are timed as a user calls them, with their defaults:

1. ``run_pipeline(tree)``, or ``realize_graph(graph)`` for graph inputs;
2. ``realization_to_json``;
3. ``realization_from_json`` then ``make_certificate(realization, tree)``,
   which is ``gridlift verify --tree`` without process start-up.

Every output is checked (see ``check``); an instance that fails any check
counts against ``pass_rate``. A run repeats whole passes over the workload's
corpus, each in an order drawn from ``--seed``, and starts another pass
only while it is expected to end within ``--seconds``. Timings are pooled
over all passes. Every timed interval is bracketed by the speed probe of
probe.py and reported at the probe's nominal speed, which removes most of
the drift of a shared machine; the medians as measured are printed too.
``realize_s.p90`` needs 100 samples, so that ten lie beyond it; a run
with fewer reports the median in its place.

With ``--trace 1`` the run makes one untraced pass and then the same pass
traced (tracer.py), whatever ``--seconds`` says, and prints per-layer
metrics instead. The raw spans go
to ``.bench_out/`` under the checkout.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from probe import PROBE_REF_S, probe
from tracer import COUNTERS, MAX_BITS, PACKAGE, SPANS, Tracer, package_modules

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"

# Set-up is short and noisy on a shared machine; its median over this many
# repetitions is what gets reported.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "realize_s.p50": "s",
    "realize_s.p90": "s",
    "verify_s.p50": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "coord_bits.xy": "bits",
    "coord_bits.z": "bits",
    "pass_rate": "ratio",
}

# Share of the traced entry-point time spent in named layers; these confirm
# why each workload was chosen.
LIFT_ROUND = [
    "lifting.build_lifted",
    "rounding.perturb_flat",
    "rounding.check_volume_ratios",
    "rounding.adjusted_shifts",
    "rounding.round_and_scale",
]
SHARES = {
    "share.global_of_verify": ("bench.verify", ["verify.verify_convexity_global"]),
    "share.global_of_realize": ("bench.realize", ["verify.verify_convexity_global"]),
    "share.liftround_of_realize": ("bench.realize", LIFT_ROUND),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units[MAX_BITS] = "bits"
    for name in SHARES:
        units[name] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.missing"] = "count"
    return units


# ---------------------------------------------------------------------------
# set-up


def probe_after(interval_s: float) -> float:
    # a tenth of the interval it follows, so probes add about 10% to a run
    return probe(min(max(0.1 * interval_s, 0.02), 0.5))


def import_package():
    """Import gridlift afresh from the checkout's sources."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for module in package_modules():
        del sys.modules[module.__name__]
    gl = importlib.import_module(PACKAGE)
    if Path(gl.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"benchmark: imported {gl.__file__}, not the checkout's sources")
    return gl


def setup(workload: str, repeats: int):
    """Import plus input generation, timed ``repeats`` times; the median at
    nominal probe speed and the last import's package and instances are
    returned."""
    times = []
    before = probe_after(0.0)
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        gl = import_package()
        instances = corpus.build(gl, corpus.WORKLOADS[workload])
        elapsed = time.perf_counter() - start
        after = probe_after(elapsed)
        times.append(elapsed * 2 * PROBE_REF_S / (before + after))
        before = after
    return statistics.median(times), gl, instances


# ---------------------------------------------------------------------------
# one instance


@dataclass
class Outcome:
    key: str
    n: int
    # entry-point times at nominal probe speed, and as measured
    realize_s: float | None = None
    to_json_s: float | None = None
    verify_s: float | None = None
    raw_s: tuple[float, float, float] | None = None
    probe_s: float = PROBE_REF_S  # the probe taken last, after the instance
    bits_xy: int | None = None
    bits_z: int | None = None
    report_sha: str | None = None
    realization_sha: str | None = None
    problems: list[str] = field(default_factory=list)
    # outputs kept only until check() has looked at them
    realization: object = None
    certificate: object = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_instance(
    gl, inst: corpus.Instance, tracer: Tracer | None = None, before: float | None = None
) -> Outcome:
    """Time the three entry points on one input; checks come afterwards.

    The speed probe runs before realize (or ``before`` is its result), after
    realize, and after verify, so each phase is scaled by the probes that
    bracket it.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    out = Outcome(inst.key, inst.n)
    clock = time.perf_counter
    if before is None:
        before = probe_after(0.0)
    gc.collect()
    try:
        t0 = clock()
        with span("bench.realize"):
            if inst.graph is not None:
                realization, report, tree = gl.realize_graph(inst.graph)
            else:
                tree = inst.tree
                realization, report = gl.run_pipeline(tree)
        realize_s = clock() - t0
        middle = probe_after(realize_s)
        t1 = clock()
        with span("bench.to_json"):
            text = gl.realization_to_json(realization)
        t2 = clock()
        with span("bench.verify"):
            parsed = gl.realization_from_json(text)
            cert = gl.make_certificate(parsed, tree)
        t3 = clock()
        out.probe_s = probe_after(t3 - t1)
        with span("bench.check"):
            out.report_sha = sha256(gl.report_to_json(report, include_timing=False))
    except Exception as exc:  # any raise is a failed instance, not a crash
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
        out.probe_s = probe_after(0.0)
        return out
    out.raw_s = (realize_s, t2 - t1, t3 - t2)
    first = 2 * PROBE_REF_S / (before + middle)
    second = 2 * PROBE_REF_S / (middle + out.probe_s)
    out.realize_s = realize_s * first
    out.to_json_s = (t2 - t1) * second
    out.verify_s = (t3 - t2) * second
    out.realization_sha = sha256(text)
    out.realization, out.certificate = parsed, cert
    return out


def paper_bounds(d: int, n: int) -> tuple[int, int]:
    """Horizontal and height caps 10 d^2 B^2 and 6 B^3, B = (2d)^ceil(log2 n),
    from n and d alone rather than from the R_eff the program reports."""
    B = (2 * d) ** (n - 1).bit_length()
    return 10 * d * d * B * B, 6 * B**3


def check(inst: corpus.Instance, out: Outcome, golden: dict) -> Outcome:
    """Record every way the outputs of one instance are wrong."""
    if out.certificate is None:  # it raised; the problem is recorded
        return out
    if not out.certificate.ok:
        out.problems.append("certificate failed: " + "; ".join(out.certificate.witnesses[:3]))
    expected = golden.get(inst.key)
    if expected is None:
        out.problems.append("no golden hashes recorded")
    else:
        if out.report_sha != expected["report"]:
            out.problems.append("report hash differs from golden")
        if out.realization_sha != expected["realization"]:
            out.problems.append("realization hash differs from golden")
    coords = out.realization.coords
    cap_xy, cap_z = paper_bounds(inst.d, inst.n)
    if len(coords) != inst.n:
        out.problems.append(f"{len(coords)} vertices, expected {inst.n}")
    for vid, p in enumerate(coords):
        if len(p) != inst.d or not all(type(c) is int for c in p):
            out.problems.append(f"vertex {vid} is not an integer point of length {inst.d}")
        elif min(p) < 0 or max(p[:-1]) > cap_xy or p[-1] > cap_z:
            out.problems.append(f"vertex {vid} outside the paper's bounds")
    if not out.problems:
        out.bits_xy = max(c.bit_length() for p in coords for c in p[:-1])
        out.bits_z = max(p[-1].bit_length() for p in coords)
    out.realization = out.certificate = None
    return out


# ---------------------------------------------------------------------------
# runs


def run_pass(gl, order, golden, tracer: Tracer | None = None) -> list[Outcome]:
    """Run and check each instance; each probe serves the instance before
    it and the one after it."""
    outcomes = []
    before = probe_after(0.0)
    for inst in order:
        out = check(inst, run_instance(gl, inst, tracer, before), golden)
        outcomes.append(out)
        before = out.probe_s
    return outcomes


def measure(gl, instances, golden, seconds: float, rng: random.Random):
    """Whole passes in seeded orders while the next one is expected to fit."""
    outcomes: list[Outcome] = []
    passes = 0
    start = time.perf_counter()
    while True:
        order = list(instances)
        rng.shuffle(order)
        outcomes += run_pass(gl, order, golden)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return outcomes, passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90


def p90(samples: list[float]) -> float:
    """The 90th percentile once it is resolved; before that the median,
    the highest percentile that a small sample resolves."""
    if len(samples) < P90_MIN_SAMPLES:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, float]:
    timed = [o for o in outcomes if o.realize_s is not None]
    passed = [o for o in outcomes if not o.problems]
    realize = [o.realize_s for o in timed] or [0.0]
    verify = [o.verify_s for o in timed] or [0.0]
    total = sum(realize)
    return {
        "setup_s": setup_s,
        "realize_s.p50": statistics.median(realize),
        "realize_s.p90": p90(realize),
        "verify_s.p50": statistics.median(verify),
        "vertices_per_s": sum(o.n for o in timed) / total if total else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "coord_bits.xy": max((o.bits_xy for o in passed), default=0),
        "coord_bits.z": max((o.bits_z for o in passed), default=0),
        "pass_rate": len(passed) / len(outcomes),
    }


def per_layer(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for name in SPANS:
        agg = totals.get(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for part in ("total_s", "self_s", "calls"):
            metrics[f"{name}.{part}"] = agg[part]
    metrics.update(tracer.counts)
    for name, (root, layers) in SHARES.items():
        under = tracer.totals(root)
        whole = totals.get(root, {}).get("total_s", 0.0)
        part = sum(under.get(layer, {}).get("total_s", 0.0) for layer in layers)
        metrics[name] = part / whole if whole else 0.0
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.missing"] = len(tracer.missing)
    return metrics


def timed_s(outcomes: list[Outcome]) -> float:
    """Time in the three entry points, at nominal probe speed."""
    return sum(o.realize_s + o.to_json_s + o.verify_s for o in outcomes if o.realize_s is not None)


def traced_run(gl, instances, golden, rng: random.Random, dump_path: Path):
    """One untraced pass, then the same pass traced; the difference in
    entry-point time is the tracing overhead."""
    order = list(instances)
    rng.shuffle(order)
    plain = run_pass(gl, order, golden)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(gl, order, golden, tracer)
    dump_path.parent.mkdir(parents=True, exist_ok=True)
    dump_path.write_text(json.dumps(tracer.dump()))
    overhead_s = timed_s(traced) - timed_s(plain)
    return plain + traced, per_layer(tracer, overhead_s), tracer.missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # time imports from cached bytecode, as an installed package's would be
    sys.dont_write_bytecode = False

    golden = json.loads(GOLDEN.read_text())
    rng = random.Random(args.seed)
    if args.trace:
        _, gl, instances = setup(args.workload, 1)
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        outcomes, metrics, missing = traced_run(gl, instances, golden, rng, dump)
        units = per_layer_units()
        print(f"{args.workload}: traced {len(instances)} instances; spans in {dump}")
        for name in missing:
            print(f"  missing: {name}")
    else:
        setup_s, gl, instances = setup(args.workload, SETUP_REPEATS)
        outcomes, passes = measure(gl, instances, golden, args.seconds, rng)
        metrics = end_to_end(outcomes, setup_s)
        units = END_TO_END_UNITS
        print(f"{args.workload}: {passes} pass(es) over {len(instances)} instances, {len(outcomes)} samples")
        if len(outcomes) < P90_MIN_SAMPLES:
            print(f"  realize_s.p90 needs {P90_MIN_SAMPLES} samples; the median stands in for it")
        raw = [o.raw_s for o in outcomes if o.raw_s is not None] or [(0.0, 0.0, 0.0)]
        for i, name in enumerate(("realize_s", "to_json_s", "verify_s")):
            print(f"  as measured: {name}.p50 = {statistics.median(r[i] for r in raw)} s")
        print(f"  probe median = {statistics.median(o.probe_s for o in outcomes)} s")
    failed = [o for o in outcomes if o.problems]
    for o in failed[:10]:
        print(f"  FAILED {o.key}: {'; '.join(o.problems[:3])}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(outcomes),
                "failed": len(failed),
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
