from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import (
    BASE_FACET_KEY,
    GeometryError,
    balance_weights,
    bracket,
    build_flat,
    creasing,
    gen_tree,
    height_on_hyperplane,
    stress_of_ridge,
)
from gridlift.exact import (
    FLAT_RIDGE,
    _check_shared_ridge,
    _det_int,
    flat_stress_plan,
    maximal_minors,
    plan_stresses,
)
from gridlift.flat import build_ridge_adjacency
from gridlift.lifting import lift_heights

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

    def test_cached_shadow(self):
        facet = [(0, 0, 1), (4, 0, 3), (0, 4, 5)]
        shadow = bracket([p[:-1] for p in facet])
        assert height_on_hyperplane(facet, (1, 1), shadow) == height_on_hyperplane(
            facet, (1, 1)
        )


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
def lifted_complexes(draw):
    """A stacking complex in d = 3..5 with rational lifted vertices.

    "lifted" keeps the flat embedding and lifts it with random positive
    shifts, so every ridge has a stress; "random" draws every coordinate
    (base heights zero unless `tilted`), so orientation failures occur,
    and `collapse` puts one vertex's shadow onto another's, which makes
    the shadows of their common facets degenerate. Facet vertex orders
    are permuted, the base facet's too.
    """
    d = draw(st.sampled_from([3, 4, 5]))
    tree = gen_tree("random", d, draw(st.integers(1, 4)), draw(st.integers(0, 20)))
    flat = build_flat(balance_weights(tree))
    n = len(flat.coords)
    if draw(st.sampled_from(["lifted", "random"])) == "lifted":
        zeta = {v: draw(rationals().filter(lambda q: q > 0)) for v in flat.interior_order}
        z = lift_heights(flat, zeta)
        points = [(*p, h) for p, h in zip(flat.coords, z)]
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
    base = tuple(draw(st.permutations(flat.base_facet)))
    facets = {k: tuple(draw(st.permutations(f))) for k, f in flat.facets.items()}
    return d, points, base, facets


def reference_stresses(points, adjacency, facet_vertices):
    """stress_of_ridge per ridge: its value, or its GeometryError message."""
    out = {}
    for ridge, keys in adjacency.items():
        X = [points[v] for v in ridge]
        S, T = (
            X + [points[next(v for v in facet_vertices(k) if v not in ridge)]]
            for k in keys
        )
        try:
            out[ridge] = stress_of_ridge(X, S, T, BASE_FACET_KEY in keys)
        except GeometryError as exc:
            out[ridge] = str(exc)
    return out


def plan_table(d, points, adjacency, facet_vertices):
    """plan_stresses of the flat plan of `points`, lifted by their last entries."""
    plan = flat_stress_plan(d, [p[:-1] for p in points], adjacency, facet_vertices)
    return plan_stresses(plan, [F(p[-1]) for p in points])


class TestStressTable:
    @given(lifted_complexes())
    @settings(max_examples=150, deadline=None)
    def test_equals_stress_of_ridge(self, complex_):
        d, points, base, facets = complex_
        adjacency = build_ridge_adjacency(d, facets, base)
        table = {BASE_FACET_KEY: base, **facets}
        stresses, failures = plan_table(d, points, adjacency, table.__getitem__)
        expected = reference_stresses(points, adjacency, table.__getitem__)
        assert {**stresses, **failures} == expected
        # adjacency order is kept, so witnesses come out in the same order
        assert list(failures) == [r for r in adjacency if isinstance(expected[r], str)]
        assert list(stresses) == [r for r in adjacency if r not in failures]

    def test_tetrahedron(self, tet_lifted, tet_flat):
        points = [(*p, h) for p, h in zip(tet_flat.coords, tet_lifted.z)]
        stresses, failures = plan_table(
            3, points, tet_flat.ridge_adjacency, tet_flat.facet_vertices
        )
        assert failures == {}
        assert stresses == tet_lifted.stresses

    def test_one_plan_many_lifts(self, tet_flat):
        # the plan holds nothing of the heights: every lift reads it afresh
        plan = flat_stress_plan(
            3, tet_flat.coords, tet_flat.ridge_adjacency, tet_flat.facet_vertices
        )
        for shift in (F(16, 9), F(32, 9), F(1, 7)):
            z = lift_heights(tet_flat, {0: shift})
            points = [(*p, h) for p, h in zip(tet_flat.coords, z)]
            expected = reference_stresses(
                points, tet_flat.ridge_adjacency, tet_flat.facet_vertices
            )
            assert plan_stresses(plan, z) == (expected, {})

    def test_degenerate_shadow_message(self):
        # apex 3 lifted straight above base vertex 1: the shadows of both
        # facets through 1 and 3 collapse onto the ridge span
        points = [(0, 0, 0), (6, 0, 0), (0, 6, 0), (6, 0, 5)]
        base = (0, 1, 2)
        facets = {0: (3, 1, 2), 1: (0, 3, 2), 2: (0, 1, 3)}
        adjacency = build_ridge_adjacency(3, facets, base)
        table = {BASE_FACET_KEY: base, **facets}
        _, failures = plan_table(3, points, adjacency, table.__getitem__)
        expected = reference_stresses(points, adjacency, table.__getitem__)
        assert failures[(0, 3)] == FLAT_RIDGE == expected[(0, 3)]
        assert {r: m for r, m in expected.items() if isinstance(m, str)} == failures


def minors_by_det(rows):
    """One _det_int per maximal minor: the reference for maximal_minors."""
    return [
        _det_int([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(len(rows) + 1)
    ]


@st.composite
def wide_matrices(draw):
    """A d x (d+1) integer matrix, d = 3..6, often with a singular or
    pivot-starved leading block so that row swaps and the fallback run."""
    d = draw(st.integers(3, 6))
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
        assert maximal_minors(rows) == minors_by_det(rows)
        assert rows == before  # the input is left alone

    def test_fallback_on_singular_leading_block(self):
        rows = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 1], [0, 1, 0, 2, 7], [3, 0, 1, 1, 1]]
        minors = maximal_minors(rows)
        assert minors[-1] == 0
        assert minors == minors_by_det(rows)
