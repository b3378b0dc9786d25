import dataclasses
import functools
import itertools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import GeometryError, exact, gen_tree
from gridlift.exact import (
    BASE_NOT_FLAT,
    FLAT_RIDGE,
    NO_ORIENTATION,
    _check_shared_ridge,
    _det_int,
    _expansion,
    bracket,
    creasing,
    facet_planes,
    homogeneous_column,
    maximal_minors,
    ridge_stresses,
    stress_of_ridge,
)
from gridlift.facets import BASE_FACET_KEY, build_ridge_adjacency
from gridlift.flat import build_flat
from gridlift.lifting import direct_stresses, lift_heights
from gridlift.trees import balance_weights
from reference import (
    by_ridge,
    facet_lookup,
    flat_points,
    height_on_hyperplane,
    homogeneous_row,
    reference_stresses,
)

F = Fraction


def project(p):
    """Drop the last coordinate."""
    if len(p) < 2:
        raise GeometryError("project requires dimension >= 2")
    return tuple(F(c) for c in p[:-1])


def creasing_by_heights(S, T):
    """Same value as creasing(), via the height-difference route.

    Measures the gap between the two hyperplanes above the projection of
    S's last point, normalized by S's projected volume: an independently
    coded cross-check of creasing().
    """
    _check_shared_ridge(S, T)
    r = project(S[-1])
    bS = bracket([p[:-1] for p in S])
    if bS == 0:
        raise GeometryError("creasing: vertical hyperplane")
    return (height_on_hyperplane(T, r) - height_on_hyperplane(S, r)) / bS


def rationals(max_num=30, max_den=7):
    return st.builds(
        F,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def point_lists(k, dim):
    return st.lists(
        st.tuples(*[rationals() for _ in range(dim)]), min_size=k, max_size=k
    )


class TestBracket:
    def test_triangle(self):
        assert bracket([(0, 0), (2, 0), (0, 2)]) == 4

    def test_swap_negates(self):
        assert bracket([(2, 0), (0, 0), (0, 2)]) == -4

    def test_collinear_is_zero(self):
        assert bracket([(0, 0), (1, 1), (2, 2)]) == 0

    def test_rational_input(self):
        assert bracket([(F(1, 2), 0), (F(3, 2), 0), (F(1, 2), 1)]) == 1

    def test_arity_mismatch(self):
        with pytest.raises(GeometryError):
            bracket([(0, 0), (1, 0)])
        with pytest.raises(GeometryError):
            bracket([(0, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_four_points(self):
        # natural axis order is negatively oriented at four points
        assert bracket([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]) == -8
        assert bracket([(0, 0, 0), (0, 2, 0), (2, 0, 0), (0, 0, 2)]) == 8

    @given(point_lists(3, 2), st.permutations(range(3)))
    def test_permutation_sign(self, pts, perm):
        b = bracket(pts)
        # parity of the permutation flips or keeps the sign
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        expected = b if inversions % 2 == 0 else -b
        assert bracket([pts[i] for i in perm]) == expected

    @given(point_lists(4, 3), st.tuples(rationals(), rationals(), rationals()))
    @settings(max_examples=50)
    def test_translation_invariance(self, pts, shift):
        moved = [tuple(c + s for c, s in zip(p, shift)) for p in pts]
        assert bracket(moved) == bracket(pts)


class TestHomogeneousColumn:
    def test_ints_are_their_own_column(self):
        assert homogeneous_column((3, -4, 0)) == [3, -4, 0, 1]

    def test_clears_denominators(self):
        assert homogeneous_column((F(1, 2), 3, F(-2, 3))) == [3, 18, -4, 6]
        # a Fraction with denominator 1 and a bool count as integers
        assert homogeneous_column((F(4), True)) == [4, 1, 1]

    @pytest.mark.parametrize("point", [(1, 2.5), (1.0, 2), (F(1, 2), 0.5), (1, "2")])
    def test_non_rational_coordinate_raises(self, point):
        with pytest.raises(GeometryError, match="^non-rational coordinate "):
            homogeneous_column(point)


class TestProjectAndHeight:
    def test_project(self):
        assert project((1, 2, 3)) == (1, 2)
        with pytest.raises(GeometryError):
            project((1,))

    def test_standard_basis_plane(self):
        facet = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert height_on_hyperplane(facet, (0, 0)) == 1

    def test_horizontal_plane(self):
        facet = [(0, 0, 7), (1, 0, 7), (0, 1, 7)]
        assert height_on_hyperplane(facet, (F(3, 5), F(-2, 9))) == 7

    def test_on_facet_points(self):
        facet = [(0, 0, 1), (4, 0, 3), (0, 4, 5)]
        for p in facet:
            assert height_on_hyperplane(facet, p[:-1]) == p[-1]

    def test_affine_in_p(self):
        facet = [(0, 0, 1), (4, 0, 3), (0, 4, 5)]
        a, b = (F(1), F(2)), (F(3), F(1, 2))
        t = F(2, 7)
        mid = tuple(t * x + (1 - t) * y for x, y in zip(a, b))
        za = height_on_hyperplane(facet, a)
        zb = height_on_hyperplane(facet, b)
        assert height_on_hyperplane(facet, mid) == t * za + (1 - t) * zb

    def test_vertical_plane_rejected(self):
        facet = [(0, 0, 0), (1, 1, 0), (2, 2, 5)]
        with pytest.raises(GeometryError):
            height_on_hyperplane(facet, (1, 0))


def ridge_pairs_3d():
    """Two facets sharing a ridge, all shadows nondegenerate."""

    def build(x1, x2, s, t):
        return (list(x1), list(x2), list(s), list(t))

    pts = st.tuples(rationals(), rationals(), rationals())
    return (
        st.tuples(pts, pts, pts, pts)
        .map(lambda q: (list(q[0]), list(q[1]), list(q[2]), list(q[3])))
        .filter(
            lambda q: bracket([q[0][:2], q[1][:2], q[2][:2]]) != 0
            and bracket([q[0][:2], q[1][:2], q[3][:2]]) != 0
        )
        .map(lambda q: ([tuple(q[0]), tuple(q[1])], tuple(q[2]), tuple(q[3])))
    )


class TestCreasing:
    def setup_method(self):
        self.X = [(0, 0, 0), (2, 0, 0)]
        self.S = self.X + [(0, 2, 0)]
        self.T = self.X + [(0, -2, 2)]

    def test_two_routes_agree(self):
        assert creasing(self.S, self.T) == creasing_by_heights(self.S, self.T)

    def test_antisymmetry(self):
        assert creasing(self.S, self.T) == -creasing(self.T, self.S)

    @given(ridge_pairs_3d())
    @settings(max_examples=60)
    def test_routes_agree_random(self, q):
        X, s, t = q
        S, T = X + [s], X + [t]
        assert creasing(S, T) == creasing_by_heights(S, T)
        assert creasing(S, T) == -creasing(T, S)

    @given(ridge_pairs_3d(), rationals(), rationals())
    @settings(max_examples=60)
    def test_representative_independence(self, q, lam, mu_raw):
        # replace S's extra point by an affine combination on S's plane
        X, s, t = q
        mu = mu_raw if mu_raw != 0 else F(1)
        S, T = X + [s], X + [t]
        lam2 = 1 - lam - mu
        s2 = tuple(
            lam * a + lam2 * b + mu * c for a, b, c in zip(X[0], X[1], s)
        )
        S2 = X + [s2]
        if bracket([p[:-1] for p in S2]) == 0:
            return
        assert creasing(S2, T) == creasing(S, T)

    def test_prefix_mismatch(self):
        with pytest.raises(GeometryError):
            creasing(self.S, [(0, 0, 0), (3, 0, 0), (0, -2, 2)])


class TestStressOfRidge:
    """Hand-built lifted tetrahedron: base at z=0, apex above."""

    base = [(0, 0, 0), (2, 0, 0), (0, 2, 0)]
    apex = (F(2, 3), F(2, 3), F(16, 9))

    def interior_ridge_args(self):
        X = [self.base[0], self.apex]
        S = X + [self.base[1]]
        T = X + [self.base[2]]
        return X, S, T

    def test_interior_value(self):
        X, S, T = self.interior_ridge_args()
        assert stress_of_ridge(X, S, T) == 4

    def test_base_value(self):
        X = [self.base[0], self.base[1]]
        S = X + [self.base[2]]
        T = X + [self.apex]
        assert stress_of_ridge(X, S, T, base_flag=True) == F(-4, 3)

    def test_facet_swap_invariance(self):
        X, S, T = self.interior_ridge_args()
        assert stress_of_ridge(X, S, T) == stress_of_ridge(X, T, S)

    def test_ridge_reorder_invariance(self):
        X, S, T = self.interior_ridge_args()
        X2 = [X[1], X[0]]
        S2 = X2 + [S[-1]]
        T2 = X2 + [T[-1]]
        assert stress_of_ridge(X2, S2, T2) == stress_of_ridge(X, S, T)

    def test_base_flag_required_consistency(self):
        X = [self.base[0], self.base[1]]
        S = X + [self.base[2]]
        T = X + [self.apex]
        # without the flag both facets project to the same side
        with pytest.raises(GeometryError):
            stress_of_ridge(X, S, T, base_flag=False)

    def test_base_flag_needs_flat_facet(self):
        X, S, T = self.interior_ridge_args()
        with pytest.raises(GeometryError):
            stress_of_ridge(X, S, T, base_flag=True)

    def test_facets_must_extend_ridge(self):
        X, S, T = self.interior_ridge_args()
        with pytest.raises(GeometryError):
            stress_of_ridge(X, [S[1], S[0], S[2]], T)

    def test_flat_degeneracy(self):
        X = [(0, 0, 0), (2, 0, 0)]
        S = X + [(1, 0, 5)]  # extra point over the ridge line
        T = X + [(0, 2, 0)]
        with pytest.raises(GeometryError):
            stress_of_ridge(X, S, T)


@st.composite
def lifted_complexes(draw, dims=(3, 4, 5)):
    """A stacking complex in one of `dims` with rational lifted vertices.

    "lifted" keeps the flat embedding and lifts it with random positive
    shifts, so every ridge has a stress; "random" draws every coordinate
    (base heights zero unless `tilted`), so orientation failures occur,
    and `collapse` puts one vertex's shadow onto another's, which makes
    the shadows of their common facets degenerate. Facet vertex orders
    are permuted in the complex's node-facet table, the base facet's too,
    and the complex comes with the points.
    """
    d = draw(st.sampled_from(dims))
    tree = gen_tree("random", d, draw(st.integers(1, 4)), draw(st.integers(0, 20)))
    flat = build_flat(balance_weights(tree))
    n = len(flat.coords)
    if draw(st.sampled_from(["lifted", "random"])) == "lifted":
        zeta = {v: draw(rationals().filter(lambda q: q > 0)) for v in flat.tree.interior_ids}
        # lift by the integer shifts zeta * m, then divide the heights by m
        m = math.lcm(*(q.denominator for q in zeta.values()))
        scaled = {v: int(q * m) for v, q in zeta.items()}
        points = [
            (*p, F(r[-1], r[0] * m))
            for p, r in zip(flat_points(flat), lift_heights(flat, scaled))
        ]
    else:
        tilted = draw(st.booleans())
        points = [
            tuple(draw(rationals()) for _ in range(d - 1))
            + (draw(rationals()) if v >= d or tilted else F(0),)
            for v in range(n)
        ]
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        points[a] = points[b][:-1] + points[a][-1:]
    layout = dict(flat.node_facets)
    for k in [0, *flat.tree.leaf_ids]:
        layout[k] = tuple(draw(st.permutations(layout[k])))
    return points, dataclasses.replace(flat, node_facets=layout)


def rows_of(points):
    """Each point p as the integer homogeneous row (D, p D), D the lcm of
    its denominators."""
    return [homogeneous_row(p) for p in points]


def kernel_list(d, points, adjacency, facets):
    """ridge_stresses on the rows of `points` and their facet_planes: one
    entry per ridge, a pair over a positive denominator or a message."""
    rows = rows_of(points)
    stresses = ridge_stresses(d, rows, adjacency, facet_planes(d, rows, facets))
    assert all(w[1] > 0 for w in stresses if not isinstance(w, str))
    return stresses


class TestStressTable:
    @given(lifted_complexes(dims=(3, 4, 5, 6, 7)))
    @settings(max_examples=150, deadline=None)
    def test_equals_stress_of_ridge(self, complex_):
        # keyed back by ridge number, so each entry, a message included, is
        # held to its own ridge's reference
        points, flat = complex_
        d, table = flat.d, flat.facet_table
        adjacency = build_ridge_adjacency(d, table)
        stresses = kernel_list(d, points, adjacency, table)
        expected = reference_stresses(points, adjacency, table.__getitem__)
        assert by_ridge(adjacency, stresses) == expected

    def test_tetrahedron(self, tet_lifted, tet_flat):
        rows, _ = tet_lifted
        adjacency = tet_flat.ridge_adjacency
        points = [(*p, F(r[-1], r[0])) for p, r in zip(flat_points(tet_flat), rows)]
        stresses = kernel_list(3, points, adjacency, tet_flat.facet_table)
        # direct_stresses raises on a message, so equality rules them out
        assert by_ridge(adjacency, stresses) == by_ridge(
            adjacency, direct_stresses(tet_flat, rows)
        )

    def test_many_lifts(self, tet_flat):
        # the construction lifts one flat complex by several sets of heights
        for shift in (16, 32, 1):
            rows = lift_heights(tet_flat, {0: shift})
            points = [(*p, F(r[-1], r[0])) for p, r in zip(flat_points(tet_flat), rows)]
            expected = reference_stresses(
                points, tet_flat.ridge_adjacency, facet_lookup(tet_flat)
            )
            stresses = direct_stresses(tet_flat, rows)
            assert by_ridge(tet_flat.ridge_adjacency, stresses) == expected

    def test_degenerate_shadow_message(self):
        # apex 3 lifted straight above base vertex 1: the shadows of both
        # facets through 1 and 3 collapse onto the ridge span
        points = [(0, 0, 0), (6, 0, 0), (0, 6, 0), (6, 0, 5)]
        table = {BASE_FACET_KEY: (0, 1, 2), 0: (3, 1, 2), 1: (0, 3, 2), 2: (0, 1, 3)}
        adjacency = build_ridge_adjacency(3, table)
        got = by_ridge(adjacency, kernel_list(3, points, adjacency, table))
        expected = reference_stresses(points, adjacency, table.__getitem__)
        assert got[(0, 3)] == FLAT_RIDGE == expected[(0, 3)]
        assert got == expected

    @pytest.mark.parametrize("d", [4, 5, 7])
    def test_every_failure_kind(self, d):
        # a collapsed shadow makes facet blocks singular; random points
        # misorient ridges; tilting the base hides which facet is flat
        tree = gen_tree("random", d, 6, 1)
        flat = build_flat(balance_weights(tree))
        n = len(flat.coords)
        points = [
            tuple(F((7 * v + 3 * i) % 11 - 5, 1 + (v + i) % 3) for i in range(d - 1))
            + (F(v % 5) if v >= 2 else F(0),)
            for v in range(n)
        ]
        # the last vertex's shadow onto a facet neighbour's
        table = flat.facet_table
        other = next(v for f in table.values() if n - 1 in f for v in f if v != n - 1)
        points[n - 1] = points[other][:-1] + points[n - 1][-1:]
        adjacency = flat.ridge_adjacency
        stresses = kernel_list(d, points, adjacency, table)
        messages = [w for w in stresses if isinstance(w, str)]
        assert {FLAT_RIDGE, NO_ORIENTATION, BASE_NOT_FLAT} <= set(messages)
        assert len(messages) < len(stresses)
        expected = reference_stresses(points, adjacency, table.__getitem__)
        # one entry per ridge, each message at its ridge's position
        assert len(stresses) == len(adjacency)
        assert [w if isinstance(w, str) else None for w in stresses] == [
            w if isinstance(w, str) else None for w in expected.values()
        ]
        assert by_ridge(adjacency, stresses) == expected


def as_flat_complex(points, flat):
    """The complex with the shadows of `points` as its columns and the
    ridge table of its own, permuted, facet table."""
    return dataclasses.replace(
        flat,
        coords=[homogeneous_row(p[:-1]) for p in points],
        ridge_adjacency=build_ridge_adjacency(flat.d, flat.facet_table),
    )


class TestFacetStressPlan:
    """The construction's route, direct_stresses: the complex lifted to
    integer rows (D, X..., Z) and one hyperplane per facet, against the
    per-ridge stress_of_ridge, ridge for ridge."""

    @given(lifted_complexes(dims=(3, 4, 5, 6, 7)))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_ridge_plan(self, complex_):
        points, flat = complex_
        flat = as_flat_complex(points, flat)
        d = flat.d
        rows = rows_of(points)
        # each row lies over the complex's own column
        assert all(
            r[:-1] == tuple(r[0] // c[0] * x for x in c) for r, c in zip(rows, flat.coords)
        )
        table = flat.facet_table
        planes = facet_planes(d, rows, table)
        stresses = ridge_stresses(d, rows, flat.ridge_adjacency, planes)
        expected = reference_stresses(points, flat.ridge_adjacency, table.__getitem__)
        assert by_ridge(flat.ridge_adjacency, stresses) == expected
        # direct_stresses raises the first failure, in adjacency order
        failures = [w for w in stresses if isinstance(w, str)]
        if failures:
            with pytest.raises(GeometryError) as exc:
                direct_stresses(flat, rows)
            assert str(exc.value) == failures[0]
        else:
            assert direct_stresses(flat, rows) == stresses


@functools.cache
def signed_permutations(n):
    """Every permutation of range(n), with its sign from its inversion count."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out.append((perm, -1 if inversions % 2 else 1))
    return out


def det_by_permutations(a):
    """Leibniz expansion over every permutation: the reference for _det_int
    and, one minor at a time, for maximal_minors and the compiled plane."""
    return sum(
        sign * math.prod(map(operator.getitem, a, perm))
        for perm, sign in signed_permutations(len(a))
    )


@st.composite
def square_matrices(draw):
    """An n x n integer matrix, n = 1..8, often with zero leading pivots
    (so elimination must swap rows) or singular."""
    n = draw(st.integers(1, 8))
    entries = st.integers(-(2**40), 2**40) | st.integers(-3, 3)
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero_pivots", "zero_column", "dependent_rows"]))
    if shape == "zero_pivots":
        # the first column's top entries vanish; all of them makes it singular
        for r in a[: draw(st.integers(1, n))]:
            r[0] = 0
    elif shape == "zero_column":
        j = draw(st.integers(0, n - 1))
        for r in a:
            r[j] = 0
    elif shape == "dependent_rows" and n >= 2:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-3, 3))
        a[i] = [c * x for x in a[k]]
    return a


class TestDetInt:
    @given(square_matrices())
    @settings(max_examples=200, deadline=None)
    def test_equals_permutation_expansion(self, a):
        before = [r[:] for r in a]
        assert _det_int(a) == det_by_permutations(a)
        assert a == before  # the input is left alone

    @pytest.mark.parametrize("a, det", [
        ([[-7]], -7),
        ([[0]], 0),
        ([[0, 1], [1, 0]], -1),
        ([[2, 4], [1, 2]], 0),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
        # the second pivot vanishes only after the first elimination step
        ([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], -1),
        ([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]], 210),
        ([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 2, 7], [3, 0, 1, 1, 1], [1, 1, 1, 1, 1]], 0),
        # 7 x 7, the largest compiled expansion: a zero first pivot, and
        # column 1 twice column 0
        ([[0, 1, 1, -2, -1, 1, 0], [0, 1, -3, 1, -3, 3, 0], [2, 1, -2, -2, 2, 0, 1],
          [3, 1, 0, 0, 2, 3, -2], [-2, 2, -2, 3, 1, 0, 2], [-3, 2, 3, -3, -2, 3, 1],
          [-3, -1, 3, -3, 3, 3, -1]], 3527),
        ([[1, 2, 1, -3, 2, 2, -2], [2, 4, 1, -1, -1, -3, -3], [0, 0, 2, 0, -3, -1, 3],
          [-3, -6, -2, -3, -1, 0, 3], [0, 0, -3, -3, 1, 1, 3], [-3, -6, 2, 1, -1, 1, -1],
          [1, 2, -3, -1, -3, -3, -3]], 0),
        # 8 x 8 is past the expansion: elimination swaps rows for a zero
        # first pivot, and stops early where column 1 is twice column 0
        ([[0, -1, 2, -1, 3, 2, 3, 2], [2, 1, -3, 3, 0, 3, -2, 2],
          [-3, -2, -3, -1, 0, 3, -2, 0], [1, -3, 1, -2, -3, 2, -2, 0],
          [-1, -2, 3, 3, 0, -2, 3, 3], [-3, -2, 1, 1, 0, -2, -2, -3],
          [3, -3, -2, 3, -2, -2, 3, -2], [-1, -1, -2, 1, 2, 2, -2, -2]], 3726),
        ([[2, 4, 0, -1, -3, -1, 0, -2], [-2, -4, -3, -1, -1, 3, 1, 1],
          [-3, -6, 2, 2, -1, -3, -1, -1], [3, 6, 0, 2, -1, -2, 0, 0],
          [2, 4, -3, -1, -3, 2, -1, 3], [0, 0, 1, 3, 0, -1, 0, 1],
          [3, 6, 0, -3, 2, -2, 1, -2], [-3, -6, -2, 3, 0, -1, 1, -1]], 0),
    ])
    def test_swaps_and_singular(self, a, det):
        assert det_by_permutations(a) == det
        before = [r[:] for r in a]
        assert _det_int(a) == det
        assert a == before


def cofactors_by_det(rows):
    """One det_by_permutations per maximal minor, signed as the cofactor of
    column j in det[rows | q]: the reference for maximal_minors and the
    compiled plane, which share no code with it."""
    d = len(rows)
    return [
        (-1) ** (d + j) * det_by_permutations([[*r[:j], *r[j + 1 :]] for r in rows])
        for j in range(d + 1)
    ]


@st.composite
def wide_matrices(draw, max_d=7):
    """A d x (d+1) integer matrix, d = 3..max_d, often with a singular or
    pivot-starved leading block so that row swaps and the fallback run."""
    d = draw(st.integers(3, max_d))
    entries = st.integers(-(2**40), 2**40) | st.integers(-3, 3)
    rows = [[draw(entries) for _ in range(d + 1)] for _ in range(d)]
    shape = draw(st.sampled_from(["any", "zero_column", "dependent_rows", "zero_pivot"]))
    if shape == "zero_column":
        j = draw(st.integers(0, d - 1))
        for r in rows:
            r[j] = 0
    elif shape == "dependent_rows":
        # the leading block's rows dependent, the last column not
        i, k = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-3, 3))
        rows[i][:d] = [c * x for x in rows[k][:d]]
    elif shape == "zero_pivot":
        rows[0][0] = 0
    return rows


class TestMaximalMinors:
    @given(wide_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_det_per_minor(self, rows):
        before = [r[:] for r in rows]
        assert maximal_minors(rows) == cofactors_by_det(rows)
        assert rows == before  # the input is left alone

    def test_fallback_on_singular_leading_block(self):
        rows = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 1], [0, 1, 0, 2, 7], [3, 0, 1, 1, 1]]
        minors = maximal_minors(rows)
        assert minors[-1] == 0
        assert minors == cofactors_by_det(rows)

    @pytest.mark.parametrize("rows, minors", [
        # 7 x 8 is past the compiled plane, where facet_planes calls
        # maximal_minors. The leading block's column 1 is twice its column
        # 0, so elimination falls back to one determinant per minor
        ([[-3, -6, 2, -1, 0, -1, 2, -1], [1, 2, -1, 2, 0, -3, 1, -3],
          [2, 4, -1, -1, 2, 0, -1, 1], [1, 2, -2, -1, -2, -1, 3, -1],
          [3, 6, -1, -1, 3, 0, -3, 3], [3, 6, 1, 2, 2, -2, -1, 1],
          [-2, -4, 3, -1, -2, -1, -2, 2]], [-2636, 1318, 0, 0, 0, 0, 0, 0]),
        # a zero first pivot: elimination swaps in the second row
        ([[0, 1, -3, -2, 0, -1, 1, -1], [1, 2, -3, 3, -1, -1, -1, -2],
          [3, 0, 0, 0, 3, 1, 0, 2], [3, 1, 2, 1, -3, 1, 3, 1],
          [-1, 0, 2, 2, 2, -2, -1, 0], [-1, 1, -1, 1, -1, -3, 3, 0],
          [1, -1, -3, 0, 1, 1, 2, -2]], [-5049, 7674, 690, 1161, 3078, 6093, 2721, -90]),
    ])
    def test_elimination_past_the_expansion(self, rows, minors):
        assert cofactors_by_det(rows) == minors
        assert maximal_minors(rows) == minors


class TestExpansion:
    def test_import_compiles_nothing(self):
        # shapes compile on first use, so a process that only imports pays
        # for none of them
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import gridlift, gridlift.exact as e; print(e._expansion.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"

    def test_no_shape_past_the_cut(self):
        # determinants compile up to 7 x 7 and facet planes up to d = 6:
        # elimination runs past them, on nonsingular blocks here, calling
        # _expansion for no shape
        rows = [[(3 * i * i + 5 * j + i * j) % 11 - 5 for j in range(8)] for i in range(7)]
        facets = {key: tuple(range(key, key + 7)) for key in range(3)}
        lifted = [[1, *((v * v + 3 * j * v + j) % 13 for j in range(7))] for v in range(9)]
        before = _expansion.cache_info()
        maximal_minors(rows)
        facet_planes(7, lifted, facets)
        _det_int([*rows, [j * j for j in range(8)]])
        assert _expansion.cache_info() == before
        # one lookup, the 7 x 7 determinant's
        _det_int([r[:7] for r in rows])
        after = _expansion.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1

    # m = n is the determinant form, m = n + 1 the plane form: from the
    # full rows, from edge rows ("edges") or, on rows (1, p), from edge rows
    # without the D factors ("points")
    CASES = [(1, 1, ""), (3, 3, ""), (7, 7, "")]
    CASES += [(n, n + 1, mode) for mode in ("", "points", "edges") for n in range(1 + bool(mode), 7)]

    @pytest.mark.parametrize("n, m, mode", CASES, ids=[
        f"{n}-{m}" + f"-{mode}" * bool(mode) for n, m, mode in CASES
    ])
    def test_minors_in_reverse_lexicographic_order(self, n, m, mode):
        rows = [[(7 * i * i + 3 * j + i * j) % 11 - 5 for j in range(m)] for i in range(n)]
        if m == n:
            assert _expansion(n, False)(rows) == det_by_permutations(rows)
            return
        if mode == "points":
            rows = [[1, *r[1:]] for r in rows]
        # the facet's rows sit among others and are named by ascending ids
        ids = list(range(1, 2 * n, 2))
        lifted = [[j - v for j in range(m)] for v in range(2 * n)]
        for v, r in zip(ids, rows):
            lifted[v] = r
        kernel = _expansion(n, True, bool(mode), mode == "points")
        cofactors, scale, facet_ids = kernel(lifted, *ids)
        assert cofactors == cofactors_by_det(rows)
        # the last cofactor is the shadow, the minor without the Z column
        assert cofactors[n] == det_by_permutations([r[:n] for r in rows])
        assert scale == math.prod(r[0] for r in rows)
        assert facet_ids == tuple(ids)


@st.composite
def integer_point_facets(draw):
    """d = 3..6 and d integer points as rows (1, p), with coordinates near
    0 or +-2^64, often with a repeated point or one on the line through two
    others; returns d, the rows and whether the points are affinely
    dependent by construction."""
    d = draw(st.integers(3, 6))
    near = st.sampled_from([0, 2**64, -(2**64)])
    coords = st.integers(-3, 3) | st.builds(operator.add, near, st.integers(-3, 3))
    points = [[draw(coords | st.integers(-(2**64), 2**64)) for _ in range(d)] for _ in range(d)]
    shape = draw(st.sampled_from(["any", "repeated", "collinear"]))
    i, k, l = draw(st.permutations(range(d)))[:3]
    if shape == "repeated":
        points[i] = list(points[k])
    elif shape == "collinear":
        t = draw(st.integers(-3, 3))
        points[i] = [a + t * (b - a) for a, b in zip(points[k], points[l])]
    return d, [[1, *p] for p in points], shape != "any"


@st.composite
def homogeneous_facets(draw):
    """d = 3..6 and d homogeneous rows (D, X..., Z), D from 1 to about 2^64
    and mixed within the facet, X and Z near 0 or +-2^64, row 0 (the edge
    rows' pivot) often with the largest D, often with a point repeated (a
    multiple of another row) or on the segment between two others; returns
    d, the rows and whether the points are affinely dependent by
    construction."""
    d = draw(st.integers(3, 6))
    big = st.integers(2**64 - 3, 2**64)
    Ds = st.integers(1, 3) | big | st.integers(1, 2**64)
    near = st.sampled_from([0, 2**64, -(2**64)])
    coords = st.integers(-3, 3) | st.builds(operator.add, near, st.integers(-3, 3))
    rows = [[draw(Ds), *(draw(coords | st.integers(-(2**64), 2**64)) for _ in range(d))]
            for _ in range(d)]
    shape = draw(st.sampled_from(["any", "repeated", "collinear"]))
    i, k, l = draw(st.permutations(range(d)))[:3]
    if shape == "repeated":
        c = draw(st.integers(1, 3))
        rows[i] = [c * x for x in rows[k]]
    elif shape == "collinear":
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[k], rows[l])]
    if draw(st.booleans()):
        top = max(range(d), key=lambda v: rows[v][0])
        rows[0], rows[top] = rows[top], rows[0]
    return d, rows, shape != "any"


class TestEdgePlane:
    """_expansion's edge rows D_0 r_i - D_i r_0 on homogeneous rows, the
    lifts' plane kernel from d = 4, against the full rows and one
    determinant per cofactor."""

    @given(homogeneous_facets())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_full_rows_and_the_reference(self, case):
        d, rows, dependent = case
        ids = tuple(range(d))
        plane = _expansion(d, True, True)(rows, *ids)
        assert plane == _expansion(d, True)(rows, *ids)
        assert plane == (cofactors_by_det(rows), math.prod(r[0] for r in rows), ids)
        if dependent:
            assert plane[0] == [0] * (d + 1)


class TestPointsPlane:
    """_expansion's points mode, the certificate's plane kernel, against the
    full rows, the edge rows and one determinant per cofactor."""

    @given(integer_point_facets())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_homogeneous_plane_and_the_reference(self, case):
        d, rows, dependent = case
        ids = tuple(range(d))
        plane = _expansion(d, True, True, True)(rows, *ids)
        assert plane == _expansion(d, True)(rows, *ids)
        assert plane == _expansion(d, True, True)(rows, *ids)
        assert plane == (cofactors_by_det(rows), 1, ids)
        if dependent:
            assert plane[0] == [0] * (d + 1)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("D", [1, 2])
    def test_facet_planes_takes_points_only_when_every_D_is_1(self, monkeypatch, d, D):
        rows = [[1, *((v * v + 3 * j * v + j) % 13 - 6 for j in range(d))] for v in range(d + 2)]
        # the last vertex, in facet 2 alone, as a homogeneous row (D, D p):
        # with D = 2 the whole table takes a homogeneous kernel
        rows[d + 1] = [D, *(D * c for c in rows[d + 1][1:])]
        facets = {key: tuple(range(key, key + d)) for key in range(3)}
        kernels = []
        original = exact._expansion

        def recording(*args):
            kernels.append(args)
            return original(*args)

        monkeypatch.setattr(exact, "_expansion", recording)
        planes = facet_planes(d, rows, facets)
        # integer points take the points mode; other rows take the edge rows
        # from d = 4 and the full rows at d = 3
        points, edges, full = (True, True), (True, False), (False, False)
        assert kernels == [(d, True, *(points if D == 1 else full if d == 3 else edges))]
        for key, ids in facets.items():
            facet_rows = [rows[v] for v in ids]
            assert planes[key] == (cofactors_by_det(facet_rows), D ** (d + 1 in ids), ids)
