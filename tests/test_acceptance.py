"""Acceptance suite: one test per shipped criterion, exact comparisons only.

Each test finishes by printing a single summary line (visible with -s, and
kept in the captured output otherwise); the pytest verdict for the test is
the pass/fail signal for its criterion.
"""

import math
import time
from fractions import Fraction

import pytest

from gridlift import (
    gen_lowerbound_graph,
    gen_tree,
    parse_tree,
    realize_graph,
    run_pipeline,
    tree_from_graph,
)
from gridlift.flat import build_flat
from gridlift.lifting import (
    adjusted_shifts,
    direct_stresses,
    incremental_stresses,
    lift_heights,
)
from gridlift.trees import balance_weights, check_balanced
from gridlift.verify import verify_convexity_global, verify_convexity_stress
from reference import by_ridge, nonseparating_triangles, verify_convexity_exhaustive

F = Fraction


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def spread(count: int, lo: int, hi: int, stride: int = 9973):
    """Deterministic size spread covering [lo, hi]."""
    return [lo + (i * stride) % (hi - lo + 1) for i in range(count)]


def test_criterion_1_end_to_end_fixture():
    t0 = time.perf_counter()
    tree = parse_tree('{"dim": 3, "tree": [null, null, null]}')
    realization, report = run_pipeline(tree)
    elapsed = time.perf_counter() - t0
    assert realization.coords == [
        (0, 0, 0),
        (1440, 0, 0),
        (0, 1440, 0),
        (480, 480, 21),
    ]
    assert report.weights["R_eff"] == 4
    assert report.grid["alpha"] == F(1, 720)
    assert report.grid["alpha_z"] == F(1, 12)
    cert = report.certificate
    assert (
        cert.convex_by_stress
        and cert.convex_global
        and cert.bounds_ok
        and cert.combinatorics_ok
    )
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: fixture coords exact, certificate all-true "
        f"({elapsed:.3f}s)"
    )


SWEEP_PLAN = [
    (3, 200, 200),  # dimension, instances, max vertex count
    (4, 200, 80),
    (5, 200, 80),
]


@pytest.fixture(scope="module")
def sweep_results():
    results = []
    t0 = time.perf_counter()
    for d, count, n_max in SWEEP_PLAN:
        sizes = spread(count, d + 1, n_max)
        for i, n in enumerate(sizes):
            tree = gen_tree("random", d, n - d, seed=100_000 * d + i)
            realization, report = run_pipeline(tree)
            results.append((d, n, realization, report))
    return results, time.perf_counter() - t0


def test_criterion_2_random_sweep_bounds(sweep_results):
    results, elapsed = sweep_results
    assert len(results) == 600
    for d, n, realization, report in results:
        R_eff = report.weights["R_eff"]
        for p in realization.coords:
            assert len(p) == d
            for c in p:
                assert isinstance(c, int) and c >= 0
        max_xy = max(c for p in realization.coords for c in p[:-1])
        max_z = max(p[-1] for p in realization.coords)
        assert max_xy <= 10 * d * d * R_eff * R_eff
        assert max_z <= 6 * R_eff**3
        assert report.certificate.ok
    assert elapsed < 600
    print(
        f"criterion 2 PASS: 600 realizations integral and inside the "
        f"10*d^2*R_eff^2 / 6*R_eff^3 bounds ({elapsed:.1f}s)"
    )


def test_criterion_3_stage_inequalities(sweep_results):
    results, _ = sweep_results
    for d, n, realization, report in results:
        R_eff = report.weights["R_eff"]
        lift = report.stages["lift"]
        assert lift["min_interior_stress"] >= 1
        assert -R_eff < lift["min_base_stress"]
        assert lift["max_base_stress"] < 0

        window = F(1, 10 * R_eff)
        perturb = report.stages["perturb"]
        assert 1 - window <= perturb["ratio_min"] <= perturb["ratio_max"] <= 1 + window

        rnd = report.stages["round"]
        assert rnd["min_interior_stress"] >= F(4, 5)
        assert -2 * R_eff < rnd["min_base_stress"] < 0
        assert 0 < rnd["z_max"] < 2 * R_eff * R_eff
        assert rnd["min_interior_stress_rounded"] > 0
    print("criterion 3 PASS: all stage inequalities exact on all 600 instances")


def _corrupt(realization, style: str):
    import dataclasses

    coords = [list(p) for p in realization.coords]
    vid = len(coords) - 1
    if style == "spike":
        coords[vid][-1] += 10**9
    elif style == "flatten":
        coords[vid][-1] = 0
    elif style == "dip":
        coords[vid][-1] = -1
    elif style == "duplicate":
        # merge the apex onto a base corner: coincident points, zero height
        coords[vid] = list(coords[0])
    elif style == "lateral":
        coords[vid][0] += 10**9
    elif style == "sink":
        # pull the apex down close to its facet plane but keep it positive
        coords[vid][-1] = 1
    elif style == "extra_vertex":
        # a point strictly inside the polytope that lies on no facet
        n = len(coords)
        coords.append([sum(p[i] for p in coords) // n for i in range(len(coords[0]))])
    elif style == "dropped_facet":
        facets = dict(realization.facets)
        del facets[min(facets)]
        return dataclasses.replace(realization, facets=facets)
    return dataclasses.replace(realization, coords=[tuple(p) for p in coords])


def _global_verdict(realization) -> bool:
    """The linear global route, held to its exhaustive reference."""
    g_ok, _ = verify_convexity_global(realization)
    e_ok, _ = verify_convexity_exhaustive(realization)
    assert g_ok == e_ok
    return g_ok


def test_criterion_4_dual_oracle_and_stress_routes():
    # 1000 positives: both oracles must accept, and the pipeline's exact
    # direct-vs-incremental stress comparison runs inside each call
    agree = 0
    for seed in range(1000):
        k = 1 + seed % 9
        tree = gen_tree("random", 3, k, seed=seed)
        realization, report = run_pipeline(tree)
        s_ok, _ = verify_convexity_stress(realization)
        assert s_ok is True and _global_verdict(realization) is True
        agree += 1

    # explicit route comparison on fresh instances, every ridge exact
    for seed in range(50):
        tree = gen_tree("random", 3, 4 + seed % 8, seed=7000 + seed)
        flat = build_flat(balance_weights(tree))
        zeta = adjusted_shifts(flat)
        direct = direct_stresses(flat, lift_heights(flat, zeta))
        incremental = incremental_stresses(flat, zeta)
        assert by_ridge(flat.ridge_adjacency, direct) == by_ridge(flat.ridge_adjacency, incremental)

    # 100 corrupted negatives, both oracles must reject each one
    rejected = 0
    for i in range(25):
        tree = gen_tree("random", 3, 2 + i % 8, seed=5000 + i)
        realization, _ = run_pipeline(tree)
        for style in ("spike", "flatten", "dip", "duplicate"):
            bad = _corrupt(realization, style)
            s_ok, _ = verify_convexity_stress(bad)
            assert s_ok is False, (i, style)
            assert _global_verdict(bad) is False, (i, style)
            rejected += 1
    assert rejected == 100

    # d = 3, 4, 5: positives, and every corruption style. The global routes
    # agree on all of them. A lateral shove or a sunk apex can leave the
    # polytope convex, so there only agreement is required. A sunk apex keeps
    # its shadow and a positive height, inside the stress route's class, so
    # that route must agree too; a shove can move the shadow off the base
    higher = 0
    for d in (3, 4, 5):
        for i in range(20):
            tree = gen_tree("random", d, 2 + i % 10, seed=9000 * d + i)
            realization, _ = run_pipeline(tree)
            assert _global_verdict(realization) is True
            for style in ("spike", "flatten", "dip", "duplicate",
                          "extra_vertex", "dropped_facet"):
                assert _global_verdict(_corrupt(realization, style)) is False, (
                    d, i, style)
            _global_verdict(_corrupt(realization, "lateral"))
            sunk = _corrupt(realization, "sink")
            s_ok, _ = verify_convexity_stress(sunk)
            assert s_ok == _global_verdict(sunk), (d, i)
            higher += 1
    print(
        "criterion 4 PASS: oracles agree on 1000 positives and reject "
        "100 corrupted negatives; stress routes match ridge-for-ridge; "
        f"linear and exhaustive global routes agree on {higher} d=3..5 "
        "instances under 8 corruption styles"
    )


def test_criterion_5_balancing():
    checked = 0
    plans = [(3, 150), (4, 150), (5, 100), (6, 100)]
    for d, count in plans:
        n_max = {3: 120, 4: 80, 5: 60, 6: 50}[d]
        sizes = spread(count, d + 1, n_max, stride=7919)
        for i, n in enumerate(sizes):
            tree = gen_tree("random", d, n - d, seed=31_000 * d + i)
            wt = balance_weights(tree)
            check_balanced(wt)  # node-by-node predicate, raises on violation
            assert all(wt.weight[leaf] >= 1 for leaf in tree.leaf_ids)
            assert wt.root_weight <= (2 * d) ** ceil_log2(tree.n_vertices)
            heavy = wt.heavy_child
            bound = math.floor(math.log2(tree.n_vertices))
            parent_of = {c: v for v, ch in enumerate(tree.children) for c in ch}
            for leaf in tree.leaf_ids:
                light = 0
                v = leaf
                while v != 0:
                    parent = parent_of[v]
                    if tree.children[parent][heavy[parent]] != v:
                        light += 1
                    v = parent
                assert light <= bound
            checked += 1
    assert checked == 500
    print("criterion 5 PASS: 500 trees balanced, weight and light-depth bounds hold")


def test_criterion_6_lowerbound_generator():
    g = gen_lowerbound_graph("b3")
    assert g.n == 20
    assert len(g.edges()) == 54
    n_faces = len(g.edges()) - g.n + 2
    assert n_faces == 36
    assert sum(1 for a in g.adjacency if len(a) == 3) == 12

    facets = nonseparating_triangles(g)
    assert len(facets) == n_faces
    for base in facets:
        t = tree_from_graph(g, base)
        assert t.n_vertices == 20

    realization, report, tree = realize_graph(g)
    assert len(realization.facets) + 1 == 36
    assert report.certificate.ok
    print(
        "criterion 6 PASS: b3 is 20 vertices / 36 faces / 12 cubic vertices, "
        "recoverable from every facet, realized with a full certificate"
    )


def test_criterion_7_growth_monitor():
    rows = []
    for n in (25, 50, 100, 200):
        tree = gen_tree("serpentine", 3, n - 3)
        realization, report = run_pipeline(tree)
        R_eff = report.weights["R_eff"]
        overall_max = max(c for p in realization.coords for c in p)
        bound_curve = 6 * R_eff**3
        rows.append((n, R_eff, overall_max, bound_curve))
    for (n1, _, m1, _), (n2, _, m2, _) in zip(rows, rows[1:]):
        assert m1 < m2, "realized maximum must grow with n"
    for n, R_eff, m, bound in rows:
        assert m < bound, "realized maximum must stay below the bound curve"
    table = " | ".join(f"n={n}: max={m} < {b}" for n, _, m, b in rows)
    print(f"criterion 7 PASS: monotone growth under the bound curve ({table})")
