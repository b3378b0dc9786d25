import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import (
    BASE_FACET_KEY,
    GeometryError,
    Realization,
    gen_tree,
    make_certificate,
    parse_tree,
    run_pipeline,
    stress_of_ridge,
    verify_bounds,
    verify_combinatorics,
    verify_convexity_exhaustive,
    verify_convexity_global,
    verify_convexity_stress,
)
from gridlift.exact import _det_int
from gridlift.flat import build_ridge_adjacency
from gridlift.verify import _centroid, _facet_side_witnesses, _facets_in_order


def with_coords(realization, coords):
    return dataclasses.replace(realization, coords=[tuple(p) for p in coords])


def move_vertex(realization, vid, point):
    coords = [list(p) for p in realization.coords]
    coords[vid] = list(point)
    return with_coords(realization, coords)


def global_verdicts(realization):
    """(linear route, exhaustive route) verdicts; they must always agree."""
    g_ok, _ = verify_convexity_global(realization)
    e_ok, _ = verify_convexity_exhaustive(realization)
    assert g_ok == e_ok
    return g_ok


class TestFixtureCertificate:
    def test_all_true(self, tet_result, tet_tree):
        realization, report = tet_result
        cert = make_certificate(realization, tet_tree)
        assert cert.convex_by_stress is True
        assert cert.convex_global is True
        assert cert.bounds_ok is True
        assert cert.combinatorics_ok is True
        assert cert.ok is True
        assert cert.witnesses == []

    def test_report_embeds_certificate(self, tet_result):
        _, report = tet_result
        assert report.certificate.ok is True


class TestStressOracle:
    def test_negated_apex(self, tet_result):
        realization, _ = tet_result
        x, y, z = realization.coords[3]
        bad = move_vertex(realization, 3, (x, y, -z))
        ok, witnesses = verify_convexity_stress(bad)
        assert ok is False
        assert any("below height zero" in w for w in witnesses)
        # the mirrored tetrahedron is still globally convex; the stress
        # certificate's height preconditions are what reject it
        assert global_verdicts(bad) is True

    def test_apex_pushed_into_base(self, tet_result):
        realization, _ = tet_result
        bad = move_vertex(realization, 3, (480, 480, 0))
        ok, witnesses = verify_convexity_stress(bad)
        assert ok is False


@pytest.fixture(scope="module")
def instance():
    tree = gen_tree("random", 3, 8, seed=42)
    realization, report = run_pipeline(tree)
    return realization


class TestOraclesAgreeOnCorruptions:
    """Corruptions that stay inside the oracle-equivalence class

    (base flat at height zero, everything else strictly above) must be
    rejected by both routes.
    """

    def test_spike(self, instance):
        vid = len(instance.coords) - 1
        x, y, z = instance.coords[vid]
        bad = move_vertex(instance, vid, (x, y, z + 10**9))
        s_ok, _ = verify_convexity_stress(bad)
        assert s_ok is False
        assert global_verdicts(bad) is False

    def test_sink(self, instance):
        # pull an apex down close to its facet plane but keep it positive
        vid = len(instance.coords) - 1
        x, y, z = instance.coords[vid]
        bad = move_vertex(instance, vid, (x, y, 1))
        s_ok, _ = verify_convexity_stress(bad)
        # all three verdicts, whatever they are, must agree
        assert s_ok == global_verdicts(bad)

    def test_lateral_shove(self, instance):
        vid = len(instance.coords) - 1
        x, y, z = instance.coords[vid]
        bad = move_vertex(instance, vid, (x + 10**9, y, z))
        s_ok, _ = verify_convexity_stress(bad)
        assert s_ok is False
        assert global_verdicts(bad) is False


class TestGlobalRoutes:
    """The linear global route against its exhaustive reference."""

    def test_extra_vertex_inside(self):
        # a 24th point strictly inside the 23-vertex polytope, on no facet
        tree = gen_tree("random", 3, 20, 3)
        realization, _ = run_pipeline(tree)
        n = len(realization.coords)
        inside = tuple(sum(p[i] for p in realization.coords) // n for i in range(3))
        bad = with_coords(realization, list(realization.coords) + [inside])
        for route in (verify_convexity_global, verify_convexity_exhaustive):
            ok, witnesses = route(bad)
            assert ok is False
            assert witnesses == [f"vertex {n} lies on no facet"]
        cert = make_certificate(bad, tree)
        assert cert.ok is False
        assert cert.combinatorics_ok is False
        assert f"vertex count {n + 1}, expected {n}" in cert.witnesses

    def test_dropped_facet(self, instance):
        node = min(instance.facets)
        facets = {k: v for k, v in instance.facets.items() if k != node}
        bad = dataclasses.replace(instance, facets=facets)
        assert global_verdicts(bad) is False
        ok, witnesses = verify_convexity_global(bad)
        assert any("facets form no closed surface" in w for w in witnesses)

    def test_double_wound_surface_fails_only_the_ray(self):
        # a bipyramid over the star heptagon {7/2}: every ridge lies in two
        # facets and is strictly convex, the centroid is strictly inside
        # every facet hyperplane, but the surface winds twice around it
        ring = [
            (round(1000 * math.cos(4 * math.pi * k / 7)),
             round(1000 * math.sin(4 * math.pi * k / 7)), 0)
            for k in range(7)
        ]
        top, bottom = 7, 8
        coords = ring + [(0, 0, 1000), (0, 0, -1000)]
        triangles = [(k, (k + 1) % 7, apex) for apex in (top, bottom) for k in range(7)]
        surface = Realization(
            d=3,
            coords=coords,
            facets={i: t for i, t in enumerate(triangles[1:])},
            base_facet=triangles[0],
            metadata={},
        )
        ok, witnesses = verify_convexity_global(surface)
        assert ok is False
        assert witnesses and all("the ray" in w for w in witnesses)
        assert verify_convexity_exhaustive(surface)[0] is False

    @pytest.mark.parametrize("d,k,seed", [(4, 6, 1), (4, 12, 2), (5, 5, 3), (5, 10, 4)])
    def test_higher_dimensions(self, d, k, seed):
        realization, _ = run_pipeline(gen_tree("random", d, k, seed))
        assert global_verdicts(realization) is True
        last = len(realization.coords) - 1
        spike = list(realization.coords[last])
        spike[-1] += 10**9
        assert global_verdicts(move_vertex(realization, last, spike)) is False
        lateral = list(realization.coords[last])
        lateral[0] += 10**9
        assert global_verdicts(move_vertex(realization, last, lateral)) is False
        sink = list(realization.coords[last])
        sink[-1] = 1
        s_ok, _ = verify_convexity_stress(move_vertex(realization, last, sink))
        assert s_ok == global_verdicts(move_vertex(realization, last, sink))


@lru_cache(maxsize=None)
def small_realization(d, k, seed):
    return run_pipeline(gen_tree("random", d, k, seed))[0]


@st.composite
def moved_vertex(draw):
    """A small realization with one vertex moved: by a small or large
    offset, onto another vertex, or anywhere in a box around the polytope."""
    d = draw(st.sampled_from([3, 4, 5]))
    realization = small_realization(d, draw(st.integers(1, 8)), draw(st.integers(0, 3)))
    coords = realization.coords
    vid = draw(st.integers(0, len(coords) - 1))
    span = max(max(p) for p in coords)
    kind = draw(st.sampled_from(["offset", "onto", "box"]))
    if kind == "offset":
        scale = draw(st.sampled_from([1, 10, 1000, span]))
        step = st.integers(-3, 3)
        point = [c + scale * draw(step) for c in coords[vid]]
    elif kind == "onto":
        point = list(coords[draw(st.integers(0, len(coords) - 1))])
    else:
        point = [draw(st.integers(-span, 2 * span)) for _ in range(d)]
    return move_vertex(realization, vid, point)


class TestGlobalRoutesProperty:
    @given(moved_vertex())
    @settings(max_examples=150, deadline=None)
    def test_one_moved_vertex_never_splits_the_routes(self, realization):
        global_verdicts(realization)


def plane_by_cofactors(coords, facet):
    """The facet bracket's p-column cofactors, one _det_int per cofactor."""
    d = len(coords[0])
    pts = [coords[v] for v in facet]
    cof = []
    for i in range(d + 1):
        rows = [[pts[j][r] for j in range(d)] for r in range(d) if r != i]
        if i < d:
            rows.append([1] * d)
        minor = _det_int(rows)
        cof.append(minor if (i + d) % 2 == 0 else -minor)
    return cof


class TestFacetPlanes:
    @given(moved_vertex())
    @settings(max_examples=100, deadline=None)
    def test_planes_equal_per_cofactor_reference(self, realization):
        coords = realization.coords
        centroid = _centroid(coords)
        total, n = centroid
        for key, verts in _facets_in_order(realization):
            ref = plane_by_cofactors(coords, verts)
            at_o = sum(c * t for c, t in zip(ref, total)) + n * ref[-1]
            expected = None if at_o == 0 else ref if at_o < 0 else [-c for c in ref]
            got, _ = _facet_side_witnesses(coords, verts, key, [], centroid)
            assert got == expected

    def test_vertical_facet(self):
        # a facet whose shadow is degenerate: maximal_minors falls back
        coords = [(0, 0, 0), (4, 0, 0), (2, 0, 5), (1, 3, 1)]
        ref = plane_by_cofactors(coords, (0, 1, 2))
        got, _ = _facet_side_witnesses(coords, (0, 1, 2), 0, [], _centroid(coords))
        assert got in (ref, [-c for c in ref]) and ref[-1] == 0


def stress_route_by_reference(realization):
    """verify_convexity_stress with one stress_of_ridge call per ridge."""
    coords = realization.coords
    base = realization.base_facet
    witnesses = [f"vertex {v} below height zero" for v, p in enumerate(coords) if p[-1] < 0]
    witnesses += [f"base vertex {v} not at height zero" for v in base if coords[v][-1] != 0]
    witnesses += [
        f"non-base vertex {v} at height zero"
        for v, p in enumerate(coords)
        if v not in base and p[-1] == 0
    ]
    if witnesses:
        return False, witnesses
    adjacency = build_ridge_adjacency(realization.d, realization.facets, base)
    points = [tuple(Fraction(c) for c in p) for p in coords]
    for ridge, keys in adjacency.items():
        X = [points[v] for v in ridge]
        S, T = (
            X + [points[next(v for v in realization.facet_vertices(k) if v not in ridge)]]
            for k in keys
        )
        is_base = BASE_FACET_KEY in keys
        try:
            w = stress_of_ridge(X, S, T, base_flag=is_base)
        except GeometryError as exc:
            witnesses.append(f"ridge {ridge}: {exc}")
            continue
        if is_base and w >= 0:
            witnesses.append(f"base ridge {ridge} has stress {w} >= 0")
        elif not is_base and w <= 0:
            witnesses.append(f"interior ridge {ridge} has stress {w} <= 0")
    return not witnesses, witnesses


def corrupt_last_vertex(realization, style):
    coords = [list(p) for p in realization.coords]
    last = coords[-1]
    if style == "spike":
        last[-1] += 10**9
    elif style == "sink":
        last[-1] = 1
    elif style == "lateral":
        last[0] += 10**9
    elif style == "flatten":
        last[-1] = 0
    elif style == "dip":
        last[-1] = -1
    elif style == "negate":
        last[-1] = -last[-1]
    elif style == "duplicate":
        coords[-1] = list(coords[0])
    elif style == "shadow_onto_base":
        # keep the height, move the shadow onto base vertex 1
        coords[-1] = list(coords[1][:-1]) + [last[-1]]
    return with_coords(realization, coords)


class TestStressRouteAgainstReference:
    """The stress route's table kernel against per-ridge stress_of_ridge."""

    @pytest.mark.parametrize(
        "style",
        ["none", "spike", "sink", "lateral", "flatten", "dip", "negate",
         "duplicate", "shadow_onto_base"],
    )
    @pytest.mark.parametrize("d,k,seed", [(3, 8, 1), (4, 6, 1), (5, 5, 3)])
    def test_corruptions_same_witnesses(self, d, k, seed, style):
        bad = corrupt_last_vertex(small_realization(d, k, seed), style)
        assert verify_convexity_stress(bad) == stress_route_by_reference(bad)

    def test_shadow_onto_base_names_the_flat_ridges(self):
        bad = corrupt_last_vertex(small_realization(3, 8, 1), "shadow_onto_base")
        ok, witnesses = verify_convexity_stress(bad)
        assert ok is False
        assert any("flat degeneracy: facet extra point on ridge span" in w for w in witnesses)

    @given(moved_vertex())
    @settings(max_examples=100, deadline=None)
    def test_one_moved_vertex_same_witnesses(self, realization):
        assert verify_convexity_stress(realization) == stress_route_by_reference(realization)


class TestBounds:
    def test_fixture(self, tet_result):
        realization, _ = tet_result
        ok, _ = verify_bounds(realization)
        assert ok is True

    def test_explicit_parameters(self, tet_result):
        realization, _ = tet_result
        ok, _ = verify_bounds(realization, R_eff=4, d=3)
        assert ok is True
        ok, witnesses = verify_bounds(realization, R_eff=3, d=3)
        assert ok is False
        assert witnesses

    def test_negative_coordinate(self, tet_result):
        realization, _ = tet_result
        bad = move_vertex(realization, 3, (480, -1, 21))
        ok, _ = verify_bounds(bad)
        assert ok is False


class TestCombinatorics:
    def test_fixture(self, tet_result, tet_tree):
        realization, _ = tet_result
        ok, _ = verify_combinatorics(realization, tet_tree)
        assert ok is True

    def test_wrong_tree(self, tet_result):
        realization, _ = tet_result
        other = parse_tree('{"dim": 3, "tree": [[null, null, null], null, null]}')
        ok, witnesses = verify_combinatorics(realization, other)
        assert ok is False
        assert witnesses

    def test_facet_count(self, two_stack_tree):
        realization, report = run_pipeline(two_stack_tree)
        ok, _ = verify_combinatorics(realization, two_stack_tree)
        assert ok is True
        assert len(realization.facets) + 1 == two_stack_tree.interior_count * 2 + 2


class TestAgreementSmoke:
    @pytest.mark.parametrize("seed", range(8))
    def test_small_instances(self, seed):
        tree = gen_tree("random", 3, 4 + seed % 4, seed=seed)
        realization, _ = run_pipeline(tree)
        s_ok, s_wit = verify_convexity_stress(realization)
        g_ok, g_wit = verify_convexity_global(realization)
        assert s_ok and g_ok
        assert s_wit == [] and g_wit == []

    def test_exhaustive_matches_global(self):
        tree = gen_tree("random", 3, 15, seed=3)
        realization, _ = run_pipeline(tree)
        assert verify_convexity_exhaustive(realization) == verify_convexity_global(
            realization
        ) == (True, [])
