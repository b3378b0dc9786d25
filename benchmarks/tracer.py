"""Trace gridlift from outside, by wrapping its functions for one run.

The package binds its helpers with ``from .x import y``, so a function is
looked up under several names: ``rounding.lift_heights`` is the same object
as ``lifting.lift_heights``. ``install`` therefore replaces every attribute
of every loaded ``gridlift`` module that is the original function, and
``restore`` puts each one back. A name that no longer exists in its
defining module is recorded as missing instead of raising, so the trace
keeps working when helpers are deleted.

Spans carry a name, start, end and parent and stay in memory until the
run writes them out. A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Functions timed as spans, named module.function.
SPANS = [
    "trees.balance_weights",
    "trees.check_balanced",
    "trees.find_facet",
    "trees.tree_from_graph",
    "flat.build_flat",
    "lifting.build_lifted",
    "lifting.lift_heights",
    "lifting.direct_stresses",
    "lifting.incremental_stresses",
    "lifting.check_lift_bounds",
    "rounding.perturb_flat",
    "rounding.check_volume_ratios",
    "rounding.adjusted_shifts",
    "rounding.round_and_scale",
    "verify.make_certificate",
    "verify.verify_convexity_stress",
    "verify.verify_convexity_global",
    "verify.verify_bounds",
    "verify.verify_combinatorics",
    "serialize.realization_to_json",
    "serialize.realization_from_json",
    "serialize.report_to_json",
    "pipeline.run_pipeline",
]

# Hot kernels that are only counted: a span each would cost more than the
# kernel. Counter name -> wrapped function.
COUNTERS = {
    "verify.facet_tests": "verify._facet_side_witnesses",
    "exact.bracket.calls": "exact.bracket",
    "exact.det_int.calls": "exact._det_int",
    "exact.stress_of_ridge.calls": "exact.stress_of_ridge",
}
MAX_BITS = "exact.det_int.max_bits"  # largest |det| bit length seen

PACKAGE = "gridlift"


def package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.counts[MAX_BITS] = 0
        self.missing: list[str] = []
        self._stack: list[int] = []  # indices of the open spans
        self._patched: list[tuple] = []  # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_det(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            bits = result.bit_length()
            if bits > counts[MAX_BITS]:
                counts[MAX_BITS] = bits
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name it is bound to."""
        modules = package_modules()
        targets = [(name, name, self._timed) for name in SPANS]
        for counter, qualified in COUNTERS.items():
            make = self._counted_det if counter == "exact.det_int.calls" else self._counted
            targets.append((counter, qualified, make))
        for name, qualified, make in targets:
            module_name, attr = qualified.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries ---------------------------------------------------------

    def root_of(self, index: int) -> str:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return self.spans[index][0]

    def totals(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per name: total time, self time and call count, optionally only
        for spans below the root span called ``root``."""
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if root is not None and self.root_of(i) != root:
                continue
            agg = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["calls"] += 1
        return out

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "counts": self.counts,
            "totals": self.totals(),
            "spans": self.spans,
        }
