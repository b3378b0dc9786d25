import dataclasses
import math
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import (
    GeometryError,
    InvalidInputError,
    Realization,
    gen_tree,
    make_certificate,
    parse_tree,
    realization_from_json,
    realization_to_json,
    run_pipeline,
)
from gridlift import exact
from gridlift.exact import BASE_NOT_FLAT, facet_planes, ridge_stresses, stress_of_ridge
from gridlift.facets import BASE_FACET_KEY, build_ridge_adjacency
from gridlift.verify import (
    _facet_side_witnesses,
    _facets_in_order,
    _input_witnesses,
    _surface,
    verify_bounds,
    verify_combinatorics,
    verify_convexity_global,
    verify_convexity_stress,
)
from reference import (
    by_ridge,
    facet_lookup,
    facet_table,
    package_modules,
    plane_by_cofactors,
    reference_stresses,
    verify_convexity_exhaustive,
)


def with_coords(realization, coords):
    return dataclasses.replace(realization, coords=[tuple(p) for p in coords])


def move_vertex(realization, vid, point):
    coords = [list(p) for p in realization.coords]
    coords[vid] = list(point)
    return with_coords(realization, coords)


def relabel_vertex(realization, old, new):
    facets = {
        key: tuple(new if v == old else v for v in verts)
        for key, verts in realization.facets.items()
    }
    return dataclasses.replace(realization, facets=facets)


def spike_last_vertex(realization):
    *xs, z = realization.coords[-1]
    return move_vertex(realization, len(realization.coords) - 1, (*xs, z + 10**9))


def negate_apex(realization):
    x, y, z = realization.coords[3]
    return move_vertex(realization, 3, (x, y, -z))


def drop_first_facet(realization):
    node = min(realization.facets)
    facets = {k: v for k, v in realization.facets.items() if k != node}
    return dataclasses.replace(realization, facets=facets)


def add_facet(realization, key, facet):
    return dataclasses.replace(realization, facets={**realization.facets, key: facet})


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
        bad = negate_apex(tet_result[0])
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


class TestZeroStressBaseRidge:
    def test_rejected_by_the_height_precheck_and_the_global_route(self, instance):
        # lower the non-base vertex of a facet next to the base into the
        # base plane: the two facets of their common base ridge are then
        # coplanar, the only way a base ridge can fold by 0
        adjacency = build_ridge_adjacency(3, facet_table(instance))
        ridge, keys = next(
            (r, keys) for r, keys in adjacency.items() if BASE_FACET_KEY in keys
        )
        key = next(k for k in keys if k != BASE_FACET_KEY)
        vid = next(v for v in facet_lookup(instance)(key) if v not in ridge)
        assert vid not in instance.base_facet
        x, y, _ = instance.coords[vid]
        bad = move_vertex(instance, vid, (x, y, 0))
        assert verify_convexity_stress(bad) == (
            False, [f"non-base vertex {vid} at height zero"]
        )
        assert global_verdicts(bad) is False
        # past the precheck, the kernel would not give the ridge a stress of
        # 0 either: with both facets in z = 0 it cannot tell which is the base
        rows = [(1, *p) for p in bad.coords]
        planes = facet_planes(3, rows, facet_table(bad))
        stresses = by_ridge(adjacency, ridge_stresses(3, rows, adjacency, planes))
        assert stresses[ridge] == BASE_NOT_FLAT


class TestOraclesAgreeOnCorruptions:
    """Corruptions that stay inside the oracle-equivalence class

    (base flat at height zero, everything else strictly above) must be
    rejected by both routes.
    """

    def test_spike(self, instance):
        bad = spike_last_vertex(instance)
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


def malformed_facet_surface(facet):
    """A closed surface but for facet 4, given as `facet`: with (4, 4, 1)
    and (4, 4, 2) every ridge lies in two facets, but no vertex of facet 4
    is off its ridge (1, 4)."""
    return Realization(
        d=3,
        coords=[(0, 0, 0), (10, 0, 0), (0, 10, 0), (3, 3, 5), (2, 2, 9)],
        facets={1: (0, 1, 3), 2: (1, 2, 3), 3: (0, 2, 3), 4: facet, 5: (4, 4, 2)},
        base_facet=(0, 1, 2),
        metadata={},
    )


def double_wound_bipyramid():
    """A bipyramid over the star heptagon {7/2}: every ridge lies in two
    facets and is strictly convex, the centroid is strictly inside every
    facet hyperplane, but the surface winds twice around it."""
    ring = [
        (round(1000 * math.cos(4 * math.pi * k / 7)),
         round(1000 * math.sin(4 * math.pi * k / 7)), 0)
        for k in range(7)
    ]
    top, bottom = 7, 8
    coords = ring + [(0, 0, 1000), (0, 0, -1000)]
    triangles = [(k, (k + 1) % 7, apex) for apex in (top, bottom) for k in range(7)]
    return Realization(
        d=3,
        coords=coords,
        facets={i: t for i, t in enumerate(triangles[1:])},
        base_facet=triangles[0],
        metadata={},
    )


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

    def test_flat_ridges_are_not_strictly_convex(self):
        # a tetrahedron whose top facet is stacked by a vertex in its plane:
        # a convex point set, but the three new ridges are flat, so each
        # probe lies on its neighbour's hyperplane, not strictly inside
        realization = Realization(
            d=3,
            coords=[(0, 0, 0), (12, 0, 0), (0, 12, 0), (0, 0, 12), (4, 4, 4)],
            facets={1: (0, 1, 3), 2: (0, 2, 3), 3: (4, 2, 3), 4: (1, 4, 3), 5: (1, 2, 4)},
            base_facet=(0, 1, 2),
            metadata={},
        )
        assert global_verdicts(realization) is False
        assert verify_convexity_global(realization)[1] == [
            f"facet {key}: vertex {vid} not strictly inside"
            for key, vid in ((3, 1), (4, 2), (5, 3))
        ]

    def test_dropped_facet(self, instance):
        bad = drop_first_facet(instance)
        assert global_verdicts(bad) is False
        ok, witnesses = verify_convexity_global(bad)
        assert any("facets form no closed surface" in w for w in witnesses)

    def test_ridge_in_three_facets_names_no_stage(self, tet_result):
        # the witness comes from the facet table alone, not a pipeline stage
        bad = add_facet(tet_result[0], 99, (1, 2, 3))
        assert verify_convexity_stress(bad) == (
            False, ["ridge structure broken: ridge (1, 2) lies in 3 facets"]
        )
        assert verify_convexity_global(bad) == (
            False, ["facets form no closed surface: ridge (1, 2) lies in 3 facets"]
        )

    @pytest.mark.parametrize("facet,message", [
        ((4, 4, 1), "facet 4 is (4, 4, 1), not 3 distinct vertices"),
        ((4, 1), "facet 4 is (4, 1), not 3 distinct vertices"),
    ])
    def test_malformed_facet_fails_both_routes(self, facet, message):
        surface = malformed_facet_surface(facet)
        with pytest.raises(GeometryError, match=re.escape(message)):
            build_ridge_adjacency(3, facet_table(surface))
        cert = make_certificate(surface)
        assert cert.ok is False
        assert cert.witnesses == [
            f"ridge structure broken: {message}",
            f"facets form no closed surface: {message}",
        ]
        assert verify_convexity_exhaustive(surface) == (
            False, [f"facets form no closed surface: {message}"]
        )

    def test_double_wound_surface_fails_only_the_ray(self):
        surface = double_wound_bipyramid()
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
def count_plane_calls(monkeypatch):
    """Wrap each plane kernel that exact._expansion compiles from now on;
    returns the list of the vertex ids of its calls."""
    calls = []
    original = exact._expansion

    def counting_expansion(n, plane):
        kernel = original(n, plane)
        if not plane:
            return kernel

        def counted(rows, *ids):
            calls.append(ids)
            return kernel(rows, *ids)

        return counted

    monkeypatch.setattr(exact, "_expansion", counting_expansion)
    return calls


def sorted_facets(realization):
    """Every facet of a realization, the base's too, as sorted ids, sorted."""
    return sorted(tuple(sorted(f)) for f in facet_table(realization).values())


def small_realization(d, k, seed):
    return run_pipeline(gen_tree("random", d, k, seed))[0]


@st.composite
def moved_vertex(draw, dims=(3, 4, 5)):
    """A small realization with one vertex moved: by a small or large
    offset, onto another vertex, or anywhere in a box around the polytope."""
    d = draw(st.sampled_from(dims))
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


def centroid_row(coords):
    """The vertex centroid as the global route holds it: (n, vertex sum)."""
    return (len(coords), *(sum(p[i] for p in coords) for i in range(len(coords[0]))))


def constant_first(cof):
    """plane_by_cofactors' (a, c), g(p) = a . p + c, in the plane table's
    layout over the rows (1, p): (c, a)."""
    return [cof[-1], *cof[:-1]]


class TestFacetPlanes:
    """The plane table both routes read, oriented as the global route does,
    against one _det_int per cofactor."""

    @given(moved_vertex())
    @settings(max_examples=100, deadline=None)
    def test_planes_equal_per_cofactor_reference(self, realization):
        coords = realization.coords
        rows, planes = _surface(realization)[2]
        centroid = centroid_row(coords)
        n, *total = centroid
        for key, verts in _facets_in_order(realization):
            ref = plane_by_cofactors(coords, verts)
            at_o = sum(c * t for c, t in zip(ref, total)) + n * ref[-1]
            expected = None if at_o == 0 else ref if at_o < 0 else [-c for c in ref]
            got, _ = _facet_side_witnesses(rows, planes[key][0], key, [], centroid)
            assert got == (None if expected is None else constant_first(expected))

    def test_vertical_facet(self):
        # a tetrahedron whose base facet's shadow is degenerate: its
        # shadow minor is 0
        coords = [(0, 0, 0), (4, 0, 0), (2, 0, 5), (1, 3, 1)]
        realization = Realization(
            d=3,
            coords=coords,
            facets={1: (0, 1, 3), 2: (1, 2, 3), 3: (0, 2, 3)},
            base_facet=(0, 1, 2),
            metadata={},
        )
        rows, planes = _surface(realization)[2]
        ref = constant_first(plane_by_cofactors(coords, (0, 1, 2)))
        got, _ = _facet_side_witnesses(
            rows, planes[BASE_FACET_KEY][0], BASE_FACET_KEY, [], centroid_row(coords)
        )
        assert got in (ref, [-c for c in ref]) and ref[0] == 0


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
    adjacency = build_ridge_adjacency(realization.d, facet_table(realization))
    points = [tuple(Fraction(c) for c in p) for p in coords]
    facet_vertices = facet_lookup(realization)
    for ridge, keys in adjacency.items():
        X = [points[v] for v in ridge]
        S, T = (
            X + [points[next(v for v in facet_vertices(k) if v not in ridge)]]
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


@st.composite
def permuted_facets(draw):
    """A moved-vertex realization at d = 3..7 with every stored facet tuple,
    the base facet's too, in a drawn order."""
    realization = draw(moved_vertex(dims=range(3, 8)))
    facets = {
        key: tuple(draw(st.permutations(verts)))
        for key, verts in realization.facets.items()
    }
    base = tuple(draw(st.permutations(realization.base_facet)))
    return dataclasses.replace(realization, facets=facets, base_facet=base)


class TestStressRouteAgainstReference:
    """The stress route's table kernel against per-ridge stress_of_ridge."""

    @pytest.mark.parametrize(
        "style",
        ["none", "spike", "sink", "lateral", "flatten", "dip", "negate",
         "duplicate", "shadow_onto_base"],
    )
    @pytest.mark.parametrize(
        "d,k,seed", [(3, 8, 1), (4, 6, 1), (5, 5, 3), (6, 5, 2), (7, 4, 1)]
    )
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

    @given(permuted_facets(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permuted_facet_tuples_same_witnesses(self, realization, data):
        # the route's signs depend on d's parity and on where each extra
        # vertex sits in its facet, which the stored tuple order must not
        # change
        assert verify_convexity_stress(realization) == stress_route_by_reference(realization)
        # the kernel under the route, on every row (1, p) scaled by its own
        # D > 0, against stress_of_ridge on the points p
        coords = realization.coords
        scales = data.draw(
            st.lists(
                st.integers(1, 3) | st.integers(1, 2**64),
                min_size=len(coords),
                max_size=len(coords),
            )
        )
        rows = [(D, *(D * c for c in p)) for D, p in zip(scales, coords)]
        d = realization.d
        facets = facet_table(realization)
        adjacency = build_ridge_adjacency(d, facets)
        planes = facet_planes(d, rows, facets)
        stresses = ridge_stresses(d, rows, adjacency, planes)
        expected = reference_stresses(
            [tuple(Fraction(c) for c in p) for p in coords], adjacency, facets.__getitem__
        )
        assert by_ridge(adjacency, stresses) == expected
        assert all(w[1] > 0 for w in stresses if not isinstance(w, str))

    def test_one_plane_per_facet_and_no_fraction(self, monkeypatch):
        realization = small_realization(5, 30, 1)
        plane_calls = count_plane_calls(monkeypatch)
        built = []
        original_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        assert verify_convexity_stress(realization) == (True, [])
        assert sorted(plane_calls) == sorted_facets(realization)
        assert built == []

    def test_witness_prints_the_reduced_stress(self):
        # lowering the first stacked vertex to height 1 folds its three
        # ridges inward; each witness prints the stress as a reduced Fraction
        realization, _ = run_pipeline(gen_tree("random", 3, 3, seed=2))
        assert realization.coords[3] == (11520, 5760, 1536)
        ok, witnesses = verify_convexity_stress(
            move_vertex(realization, 3, (11520, 5760, 1))
        )
        assert ok is False
        assert witnesses == [
            "interior ridge (2, 3) has stress -713/212336640 <= 0",
            "interior ridge (1, 3) has stress -893/66355200 <= 0",
            "interior ridge (0, 3) has stress -7157/265420800 <= 0",
        ]


class TestMalformedPoint:
    """An in-memory point that is not d Python ints fails every route with
    verify_bounds's witness, before any arithmetic on it; so does a facet
    that names a vertex id outside the coordinate list, which the routes
    would index out of range or, for a negative id, alias to another
    vertex."""

    WITNESS = "vertex 5 is not an integer point of length 3"

    @pytest.fixture(
        params=[(1, 2), (1, 2, 3, 4), (1.5, 2, 3), ("1", 2, 3), 99, -1],
        ids=lambda p: repr(p) if isinstance(p, tuple) else f"vertex 6 as {p}",
    )
    def malformed(self, request):
        """A broken realization and the witnesses every route gives it."""
        realization = small_realization(3, 4, 1)
        if isinstance(request.param, tuple):
            return move_vertex(realization, 5, request.param), [self.WITNESS]
        # vertex 6 relabelled in every facet: the surface stays closed
        assert len(realization.coords) == 7
        vid = request.param
        bad = relabel_vertex(realization, 6, vid)
        witnesses = [
            f"facet {key} names vertex {vid}, not one of 0..6"
            for key, verts in sorted(bad.facets.items())
            if vid in verts
        ]
        assert len(witnesses) == 3
        return bad, witnesses

    @pytest.mark.parametrize("route", [
        verify_convexity_stress, verify_convexity_global, verify_convexity_exhaustive,
    ])
    def test_route(self, malformed, route):
        realization, witnesses = malformed
        assert route(realization) == (False, witnesses)

    def test_certificate(self, malformed):
        realization, witnesses = malformed
        cert = make_certificate(realization, gen_tree("random", 3, 4, 1))
        assert cert.ok is False
        assert cert.convex_by_stress is cert.convex_global is False
        # the coordinates are in bounds unless a point is malformed
        assert cert.bounds_ok is (witnesses != [self.WITNESS])
        # each witness once, the first route's first and in its order
        assert len(set(cert.witnesses)) == len(cert.witnesses)
        assert cert.witnesses[: len(witnesses)] == witnesses


class TestBoolIsNoInteger:
    """A bool is an int to Python but no coordinate or vertex id to the
    certificate, as realization_from_json already holds."""

    def test_bool_point(self):
        realization = move_vertex(small_realization(3, 4, 1), 0, (False, False, False))
        witness = "vertex 0 is not an integer point of length 3"
        cert = make_certificate(realization)
        assert cert.ok is False and cert.witnesses[0] == witness
        assert verify_convexity_stress(realization) == (False, [witness])
        with pytest.raises(InvalidInputError, match="every coordinate must be an integer"):
            realization_from_json(realization_to_json(realization))

    def test_bool_vertex_id(self):
        # True would alias vertex 1, which the facet names in its place
        realization = small_realization(3, 4, 1)
        key, verts = next((k, v) for k, v in sorted(realization.facets.items()) if 1 in v)
        facets = {**realization.facets, key: tuple(True if v == 1 else v for v in verts)}
        bad = dataclasses.replace(realization, facets=facets)
        witness = f"facet {key} names vertex True, not one of 0..6"
        assert make_certificate(bad).witnesses[0] == witness
        assert verify_convexity_global(bad) == (False, [witness])


def test_leaf_under_the_base_key_is_a_witness():
    # _surface merges the base into the facet table under BASE_FACET_KEY; a
    # leaf under that key would replace the base there, so both routes stop
    realization = small_realization(3, 4, 1)
    key = min(realization.facets)
    facets = {BASE_FACET_KEY if k == key else k: v for k, v in realization.facets.items()}
    bad = dataclasses.replace(realization, facets=facets)
    witness = f"a leaf facet has the base facet's key {BASE_FACET_KEY}"
    assert make_certificate(bad).witnesses[0] == witness
    assert verify_convexity_stress(bad) == (False, [witness])
    assert verify_convexity_global(bad) == (False, [witness])


@pytest.mark.parametrize("case", ["str key", "int base", "list facet"])
def test_malformed_facet_table_is_a_witness(case):
    # witnesses, not a TypeError from sorting mixed keys or iterating an
    # int: the routes check the table's shape before they sort or walk it
    realization = small_realization(3, 4, 1)
    key = min(realization.facets)
    if case == "str key":
        facets = {"x" if k == key else k: v for k, v in realization.facets.items()}
        bad = dataclasses.replace(realization, facets=facets)
        witness = "leaf facet key 'x' is not an int >= 0"
    elif case == "int base":
        bad = dataclasses.replace(realization, base_facet=5)
        witness = "facet base is not a tuple"
    else:
        facets = {**realization.facets, key: list(realization.facets[key])}
        bad = dataclasses.replace(realization, facets=facets)
        witness = f"facet {key} is not a tuple"
    cert = make_certificate(bad, gen_tree("random", 3, 4, 1))
    assert cert.ok is False and cert.witnesses[0] == witness
    assert cert.convex_by_stress is cert.convex_global is False
    assert verify_convexity_stress(bad) == (False, [witness])
    assert verify_convexity_global(bad) == (False, [witness])


class TestBounds:
    def test_fixture(self, tet_result):
        realization, _ = tet_result
        ok, _ = verify_bounds(realization)
        assert ok is True

    def test_explicit_parameters(self, tet_result):
        realization, _ = tet_result
        assert realization.metadata["R_eff"] == 4
        tight = dataclasses.replace(
            realization, metadata={**realization.metadata, "R_eff": 3}
        )
        ok, witnesses = verify_bounds(tight)
        assert ok is False
        assert witnesses

    def test_negative_coordinate(self, tet_result):
        realization, _ = tet_result
        bad = move_vertex(realization, 3, (480, -1, 21))
        ok, _ = verify_bounds(bad)
        assert ok is False

    @pytest.mark.parametrize("R_eff", ["3", None, 0, True])
    def test_R_eff_not_a_positive_int_is_a_witness(self, tet_result, R_eff):
        # the rule realization_from_json applies: an int, not a bool, > 0
        realization, _ = tet_result
        bad = dataclasses.replace(realization, metadata={**realization.metadata, "R_eff": R_eff})
        witness = f"metadata R_eff {R_eff!r} is not a positive integer"
        assert verify_bounds(bad) == (False, [witness])
        cert = make_certificate(bad)
        assert (cert.ok, cert.bounds_ok, cert.witnesses) == (False, False, [witness])

    def test_missing_R_eff_is_a_witness(self, tet_result):
        # no R_eff in the metadata reads as None, the same witness as above;
        # the certificate runs verify_bounds only when the key is there
        realization, _ = tet_result
        bare = Realization(
            realization.d, realization.coords, realization.facets, realization.base_facet, {}
        )
        witness = "metadata R_eff None is not a positive integer"
        assert verify_bounds(bare) == (False, [witness])
        cert = make_certificate(bare)
        assert (cert.ok, cert.bounds_ok, cert.witnesses) == (True, None, [])


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

    def test_swapped_leaf_facet_is_the_replay_witness(self):
        # the one comparison of the construction's facets with facet_layout:
        # a leaf facet with its last two vertices swapped keeps its vertices,
        # so both convexity routes, which take each plane over sorted vertex
        # ids, still pass
        tree = gen_tree("random", 4, 3, 0)
        realization, _ = run_pipeline(tree)
        leaf = tree.leaf_ids[0]
        *head, a, b = realization.facets[leaf]
        swapped = dataclasses.replace(
            realization, facets={**realization.facets, leaf: (*head, b, a)}
        )
        cert = make_certificate(swapped, tree)
        assert cert.convex_by_stress is True
        assert cert.convex_global is True
        assert cert.combinatorics_ok is False
        assert cert.witnesses == ["leaf facet table does not match the tree replay"]

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


def wrap_every_binding(monkeypatch, original):
    """Replace a package function under every name it is bound to, as the
    benchmark's tracer does; returns the list of its calls' arguments."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
    return calls


# the corrupted realizations of this module's tests, built on demand
CORRUPTED = {
    "spiked_vertex": lambda: spike_last_vertex(small_realization(3, 8, 42)),
    "negated_apex": lambda: negate_apex(small_realization(3, 1, 0)),
    "dropped_facet": lambda: drop_first_facet(small_realization(3, 8, 42)),
    "ridge_in_three_facets": lambda: add_facet(small_realization(3, 1, 0), 99, (1, 2, 3)),
    "repeated_vertex_facet": lambda: malformed_facet_surface((4, 4, 1)),
    "short_facet": lambda: malformed_facet_surface((4, 1)),
    "short_point": lambda: move_vertex(small_realization(3, 4, 1), 5, (1, 2)),
    "float_point": lambda: move_vertex(small_realization(3, 4, 1), 5, (1.5, 2, 3)),
    "out_of_range_id": lambda: relabel_vertex(small_realization(3, 4, 1), 6, 99),
    "negative_id": lambda: relabel_vertex(small_realization(3, 4, 1), 6, -1),
    "double_wound_bipyramid": double_wound_bipyramid,
}


class TestOneRidgeTable:
    """make_certificate checks its input and builds the ridge table once
    for both convexity routes, and gives what the routes give alone."""

    def test_one_table_and_one_input_check(self, monkeypatch):
        realization = small_realization(4, 20, 1)
        tables = wrap_every_binding(monkeypatch, build_ridge_adjacency)
        checks = wrap_every_binding(monkeypatch, _input_witnesses)
        assert make_certificate(realization).ok
        assert len(tables) == len(checks) == 1

    def test_one_plane_table(self, monkeypatch):
        # one compiled plane call per facet, the base's too, serves both routes
        realization = small_realization(5, 30, 1)
        plane_calls = count_plane_calls(monkeypatch)
        assert make_certificate(realization).ok
        assert sorted(plane_calls) == sorted_facets(realization)

    @pytest.mark.parametrize("name", CORRUPTED)
    def test_same_witnesses_as_the_public_routes(self, name):
        realization = CORRUPTED[name]()
        s_ok, s_wit = verify_convexity_stress(realization)
        g_ok, g_wit = verify_convexity_global(realization)
        routes = s_wit + g_wit
        if "R_eff" in realization.metadata:
            routes += verify_bounds(realization)[1]
        cert = make_certificate(realization)
        assert (cert.convex_by_stress, cert.convex_global) == (s_ok, g_ok)
        assert cert.witnesses == list(dict.fromkeys(routes))
        assert cert.witnesses
