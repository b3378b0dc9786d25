"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = [
    ("tree", ("random", 3, 4, 1)),
    ("tree", ("random", 4, 3, 2)),
    ("tree_graph", ("serpentine", 3, 5, 0)),
    ("lowerbound", ("b3", 0)),
]


# run.main() imports the package afresh, so each test imports it itself
@pytest.fixture
def gl():
    return run.import_package()


@pytest.fixture
def instances(gl):
    return corpus.build(gl, TINY)


@pytest.fixture
def golden(gl, instances):
    out = {}
    for inst in instances:
        o = run.run_instance(gl, inst)
        out[inst.key] = {"report": o.report_sha, "realization": o.realization_sha}
    return out


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(
    trace, section, golden, tmp_path, monkeypatch, capsys
):
    golden_file = tmp_path / "golden.json"
    golden_file.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", golden_file)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(corpus.WORKLOADS, "tiny", TINY)
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(TINY)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_changed_coordinate_is_a_failure(gl, instances, golden, monkeypatch):
    original = gl.realization_to_json

    def one_height_raised(r):
        coords = list(r.coords)
        coords[-1] = coords[-1][:-1] + (coords[-1][-1] + 1,)
        return original(type(r)(r.d, coords, r.facets, r.base_facet, r.metadata))

    monkeypatch.setattr(gl, "realization_to_json", one_height_raised)
    outcomes = run.run_pass(gl, instances, golden)
    assert all("realization hash differs from golden" in o.problems for o in outcomes)
    metrics = run.end_to_end(outcomes, setup_s=1.0)
    assert metrics["pass_rate"] == 0.0


def test_coordinate_beyond_paper_bound_is_a_failure(gl, instances, golden, monkeypatch):
    original = gl.realization_to_json
    inst = instances[0]
    cap_xy, _ = run.paper_bounds(inst.d, inst.n)

    def one_x_too_large(r):
        coords = list(r.coords)
        coords[0] = (cap_xy + 1,) + coords[0][1:]
        return original(type(r)(r.d, coords, r.facets, r.base_facet, r.metadata))

    monkeypatch.setattr(gl, "realization_to_json", one_x_too_large)
    out = run.check(inst, run.run_instance(gl, inst), golden)
    assert "vertex 0 outside the paper's bounds" in out.problems


def test_changed_golden_hash_is_a_failure(gl, instances, golden):
    bad = {key: dict(v) for key, v in golden.items()}
    bad[instances[1].key]["report"] = "0" * 64
    outcomes = run.run_pass(gl, instances, bad)
    failed = [o.key for o in outcomes if o.problems]
    assert failed == [instances[1].key]
    assert outcomes[1].problems == ["report hash differs from golden"]
    assert run.end_to_end(outcomes, setup_s=1.0)["pass_rate"] == 0.75


def test_paper_bounds_from_n_and_d():
    # B = 6^ceil(log2 1000) = 6^10
    assert run.paper_bounds(3, 1000) == (90 * 60466176**2, 6 * 60466176**3)


def _bindings():
    return {
        (m.__name__, key): value
        for m in package_modules()
        for key, value in vars(m).items()
        if callable(value)
    }


def test_trace_wrappers_are_gone_afterwards(gl, instances, golden):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        # rounding and verify bind these names with from-imports
        assert gl.rounding.lift_heights is not before[("gridlift.lifting", "lift_heights")]
        assert gl.verify._det_int is not before[("gridlift.exact", "_det_int")]
        outcomes = run.run_pass(gl, instances, golden, tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(o.problems for o in outcomes)
    totals = tracer.totals()
    # once in build_lifted, once through rounding's binding in round_and_scale
    assert totals["lifting.lift_heights"]["calls"] == 2 * len(instances)
    assert tracer.counts["verify.facet_tests"] > 0
    assert tracer.counts["exact.det_int.max_bits"] > 0
    assert all(t["self_s"] <= t["total_s"] + 1e-9 for t in totals.values())
    assert tracer.missing == []


def test_deleted_helper_is_reported_missing(gl, instances, golden, monkeypatch):
    monkeypatch.delattr(gl.verify, "_facet_side_witnesses")
    tracer = Tracer()
    with tracer.installed():
        run.run_instance(gl, instances[0], tracer)  # global route now raises
    assert tracer.missing == ["verify.facet_tests"]
    metrics = run.per_layer(tracer, overhead_s=0.0)
    assert metrics["trace.missing"] == 1
    assert metrics["verify.facet_tests"] == 0
