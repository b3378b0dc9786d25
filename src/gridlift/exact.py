"""Exact rational geometry kernel.

Everything downstream reduces to signed simplex volumes ("brackets") of
point sequences, evaluated exactly over the rationals. The bracket of k
points in Q^{k-1} is the determinant of the matrix whose columns are the
points with a row of ones appended; it equals (k-1)! times the signed
volume of their simplex. On top of it sit:

- height_on_hyperplane: the z-value of the hyperplane spanned by d lifted
  points above a given flat point. It is the reference the lift is tested
  against: the lift takes the same value from the facet brackets the flat
  complex already holds, with no determinant of its own;
- creasing: how two lifted facets sharing a ridge fold along it,
- stress_of_ridge: the creasing with a fixed orientation convention, which
  is the quantity whose sign pattern certifies convexity. It is the
  per-ridge reference definition;
- the flat stress plan: the same stresses for every ridge of a complex.
  flat_stress_plan does all the work the heights leave alone, once per
  flat complex, and plan_stresses lifts it by one set of heights. The
  construction builds the same plan with facet_stress_plan for d >= 4.
  The verifier builds no plan: it lifts its integer output once, so it
  takes one hyperplane per facet with maximal_minors and reads each ridge
  off two of them. The plan takes its ridges
  and facets in the facet-table format that the facets module defines,
  the flat points as integer homogeneous columns (the flat complex's own,
  or an integer point with a 1 appended), and the heights as integer
  numerators over positive denominators (or as plain integers); its
  stresses are integer pairs (Pair), which callers compare by
  cross-multiplication.

Determinants are computed fraction-free: each point is scaled to an integer
homogeneous column (p D, D), D the lcm of its denominators, and the integer
determinant (Bareiss) is divided by the product of scales. This keeps
Fraction normalization out of the O(k^3) loop. cramer_numerators takes
[B | t_1 ... t_r] through one fraction-free Gauss-Jordan elimination to
det(B) and the Cramer numerators of every right-hand side t_c, and
maximal_minors, its r = 1 case, gives all d+1 maximal minors of a
d x (d+1) integer matrix. A ridge's creasing determinant, expanded along
its height column, is the dot product of the heights with those minors of
the ridge's flat columns, and its two facet shadows are two of the minors.
flat_stress_plan takes one elimination per ridge. A ridge's columns are
one of its facets' plus the other facet's extra vertex, so
facet_stress_plan takes one elimination per facet, the extra vertices of
the ridges assigned to it as right-hand sides, and gives the same plan.
Either way each lift of the complex costs one (d+1)-term integer dot
product per ridge, with no Fraction built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Sequence

from .errors import GeometryError
from .facets import BASE_FACET_KEY, extra_vertex

Point = tuple[Fraction, ...]
PointSeq = tuple[Point, ...]

_ZERO = Fraction(0)

# stress_of_ridge raises these; plan_stresses reports them per ridge
FLAT_RIDGE = "flat degeneracy: facet extra point on ridge span"
BASE_NOT_FLAT = "base_flag set but base facet is not identifiable by z = 0"
NO_ORIENTATION = "no consistent left/right orientation for ridge"


def as_point(values: Sequence) -> Point:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def as_point_seq(points: Sequence[Sequence]) -> PointSeq:
    return tuple(as_point(p) for p in points)


def _det_int(a: list[list[int]]) -> int:
    """Determinant of a small integer matrix, fraction-free Bareiss."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        return (
            a00 * (a11 * a22 - a12 * a21)
            - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20)
        )
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility by prev
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def cramer_numerators(
    rows: Sequence[Sequence[int]],
) -> tuple[int, list[list[int]]] | None:
    """Cramer's rule for [B | t_1 ... t_r], a d x (d+r) integer matrix.

    Returns det(B) and, for each right-hand side t_c, the d determinants of
    B with column i replaced by t_c; None when B is singular. One
    fraction-free Gauss-Jordan elimination (Bareiss's exact division, on
    the rows above each pivot too) takes the matrix to
    [det(B) I | adj(B) t_1 ... adj(B) t_r], up to the sign of its row
    swaps, and entry i of adj(B) t_c is the i-th numerator.
    """
    d = len(rows)
    width = len(rows[0])
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(d):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return None
        pivot = a[k][k]
        row_k = a[k]
        for i in range(d):
            if i != k:
                row_i = a[i]
                lead = row_i[k]
                for j in range(k + 1, width):
                    row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    if sign < 0:
        return -prev, [[-r[c] for r in a] for c in range(d, width)]
    return prev, [[r[c] for r in a] for c in range(d, width)]


def maximal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """All d+1 maximal minors of a d x (d+1) integer matrix.

    Entry j is the determinant of the matrix without its column j. With B
    the leading d x d block and b the last column, cramer_numerators gives
    det(B), minor d, and for each j < d the determinant of B with column j
    replaced by b, which is minor j after moving b to the end past d-1-j
    columns. A singular B falls back to one determinant per minor. At
    d = 3 the closed form from the six 2 x 2 minors of the last two rows is
    cheaper than elimination.
    """
    d = len(rows)
    if d == 3:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        s01 = b0 * c1 - b1 * c0
        s02 = b0 * c2 - b2 * c0
        s03 = b0 * c3 - b3 * c0
        s12 = b1 * c2 - b2 * c1
        s13 = b1 * c3 - b3 * c1
        s23 = b2 * c3 - b3 * c2
        return [
            a1 * s23 - a2 * s13 + a3 * s12,
            a0 * s23 - a2 * s03 + a3 * s02,
            a0 * s13 - a1 * s03 + a3 * s01,
            a0 * s12 - a1 * s02 + a2 * s01,
        ]
    solved = cramer_numerators(rows)
    if solved is None:
        return [_det_int([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(d + 1)]
    det, (numerators,) = solved
    minors = [c if (d - 1 - j) % 2 == 0 else -c for j, c in enumerate(numerators)]
    minors.append(det)
    return minors


def homogeneous_column(p: Sequence) -> list[int]:
    """The integer column (p D, D), D the lcm of the denominators of p.

    Scaling a bracket column by D multiplies the determinant by D, so an
    integer determinant of such columns divided by the product of their
    last entries is the rational bracket. A point of ints is its own
    column with D = 1.
    """
    scale = 1
    for c in p:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                scale = lcm(scale, c.denominator)
        elif not isinstance(c, int):
            raise GeometryError(f"non-rational coordinate {c!r}")
    col = [c.numerator * (scale // c.denominator) for c in p]
    col.append(scale)
    return col


def bracket(points: Sequence[Sequence]) -> Fraction:
    """Signed (k-1)!-scaled volume of k points in Q^{k-1}.

    Columns are the points with an appended coordinate 1, cleared of
    denominators by homogeneous_column.
    """
    k = len(points)
    if k == 0:
        raise GeometryError("bracket of an empty point sequence")
    dim = k - 1
    cols: list[list[int]] = []
    denom = 1
    for p in points:
        if len(p) != dim:
            raise GeometryError(
                f"bracket expects {k} points of dimension {dim}, got one of {len(p)}"
            )
        col = homogeneous_column(p)
        denom *= col[-1]
        cols.append(col)
    # a matrix and its transpose have the same determinant
    d = _det_int(cols)
    return Fraction(d, denom) if denom != 1 else Fraction(d)


def height_on_hyperplane(facet: Sequence[Sequence], p: Sequence) -> Fraction:
    """Height of the hyperplane through d lifted points above flat point p.

    `facet` holds d points in Q^d whose projections span a nondegenerate
    simplex; p lives in Q^{d-1}. The value is the bracket of facet with
    (p, 0) appended, divided by the projected facet bracket. The sign
    convention makes the plane through the standard basis points of Q^3
    evaluate to 1 at the origin.
    """
    shadow = bracket([p_[:-1] for p_ in facet])
    if shadow == 0:
        raise GeometryError("vertical hyperplane: projected facet is degenerate")
    lifted_p = tuple(p) + (_ZERO,)
    return bracket(list(facet) + [lifted_p]) / shadow


def creasing(S: Sequence[Sequence], T: Sequence[Sequence]) -> Fraction:
    """Fold coefficient of the hyperplanes of S and T along their shared ridge.

    S and T are d lifted points each, agreeing in their first d-1 entries
    (the ridge). Evaluated as the bracket of T with the last point of S
    appended, divided by the product of the two projected facet brackets.
    Antisymmetric in (S, T); independent of which representative last
    points are used on the two hyperplanes. The tests hold it against an
    independently coded height-difference route.
    """
    _check_shared_ridge(S, T)
    bS = bracket([p[:-1] for p in S])
    bT = bracket([p[:-1] for p in T])
    if bS == 0 or bT == 0:
        raise GeometryError("creasing: vertical hyperplane")
    return bracket(list(T) + [tuple(S[-1])]) / (bT * bS)


def _check_shared_ridge(S, T) -> None:
    if len(S) != len(T) or len(S) < 2:
        raise GeometryError("creasing expects two equal-length facets, d >= 2")
    for a, b in zip(S[:-1], T[:-1]):
        if tuple(a) != tuple(b):
            raise GeometryError("facets do not share a ridge prefix")


def stress_of_ridge(
    X: Sequence[Sequence],
    S_facet: Sequence[Sequence],
    T_facet: Sequence[Sequence],
    base_flag: bool = False,
) -> Fraction:
    """Creasing of the two facets on ridge X, with the orientation convention.

    X is the shared ridge (d-1 lifted points); S_facet and T_facet extend X
    by one point each. A facet is "left" of the ridge when appending its
    extra point to the projected ridge gives a positive bracket. The base
    facet (recognized, when base_flag is set, as the one lying entirely in
    the z = 0 hyperplane) has its side label flipped: both facets of a base
    ridge project to the same side, and the flip is what makes exactly one
    of them count as left. The result is the creasing of (left, right),
    which is invariant under reordering X and under swapping the two facet
    arguments.
    """
    X = as_point_seq(X)
    S_facet = as_point_seq(S_facet)
    T_facet = as_point_seq(T_facet)
    if S_facet[:-1] != X or T_facet[:-1] != X:
        raise GeometryError("facet arguments must extend the ridge X")
    shadow_X = [p[:-1] for p in X]
    sides = []
    for facet in (S_facet, T_facet):
        b = bracket(shadow_X + [facet[-1][:-1]])
        if b == 0:
            raise GeometryError(FLAT_RIDGE)
        sides.append(b > 0)
    if base_flag:
        flat_S = all(p[-1] == 0 for p in S_facet)
        flat_T = all(p[-1] == 0 for p in T_facet)
        if flat_S == flat_T:
            raise GeometryError(BASE_NOT_FLAT)
        # the base facet's left/right label is interchanged
        if flat_S:
            sides[0] = not sides[0]
        else:
            sides[1] = not sides[1]
    if sides[0] == sides[1]:
        raise GeometryError(NO_ORIENTATION)
    left, right = (S_facet, T_facet) if sides[0] else (T_facet, S_facet)
    return creasing(left, right)


# A rational held as an integer pair (numerator, denominator), denominator
# positive and the pair not necessarily in lowest terms: two pairs compare
# by cross-multiplication, and a Fraction is made only for a value that is
# reported.
Pair = tuple[int, int]

# A flat stress plan holds one tuple per ridge X, in adjacency order:
#   (X, denominator, failure, base, e0, e1, c_0, ..., c_d)
# e0 and e1 are the extra vertices of the ridge's two facets; the stress is
# sum_j c_j z_j / denominator over the heights z of (X..., e0, e1), and the
# denominator is positive (a FLAT_RIDGE entry has 0 and no c_j). failure is
# FLAT_RIDGE or NO_ORIENTATION when the heights cannot change it (else
# None), and base marks a base ridge, whose base facet the heights tell.
# Flat tuples keep the plan small: it is the largest object alive while
# the perturbed complex is relifted.
StressPlan = list[tuple]


def flat_stress_plan(
    d: int,
    columns: Sequence[Sequence[int]],
    adjacency: dict[tuple[int, ...], tuple[int, int]],
    facet_vertices: Callable[[int], tuple[int, ...]],
) -> StressPlan:
    """Everything of stress_of_ridge, on every ridge, that heights leave alone.

    columns[v] is the horizontal position of vertex v as an integer
    homogeneous column (x E_v, E_v), E_v > 0: the flat complex stores its
    vertices so, and an integer point x is (x, 1). adjacency maps each
    ridge X to its two facet keys; e0 and e1 are the extra vertices of
    those facets, and a ridge with the key BASE_FACET_KEY is a base ridge
    (base_flag). The plan lists the ridges in adjacency order.

    The columns of the d+1 vertices (X, e0, e1) have d+1 maximal minors,
    m_j omitting the j-th vertex. Inserting the lifted entry z_j E_j before
    the last entry of each column and expanding along that row gives the
    creasing determinant

        det(X, e0, e1) = sum_j (-1)^(j+d-1) E_j m_j z_j,

    and both shadows are among the minors: sigma(X, e0) = m_d and
    sigma(X, e1) = m_(d-1). The stress of (left, right), with left and
    right extra vertices s and t, is det(X, t, s) prod(E_v, v in X) /
    (sigma_left sigma_right): everything but one dot product with the
    heights is fixed here. The shadows' signs decide left and right, except
    that on a base ridge the heights must tell which facet is the base.
    """
    plan: StressPlan = []
    for ridge, keys in adjacency.items():
        e0, e1 = (extra_vertex(facet_vertices(k), ridge) for k in keys)
        verts = (*ridge, e0, e1)
        # rows are coordinates, so each minor omits one vertex
        minors = maximal_minors(list(zip(*(columns[v] for v in verts))))
        plan.append(_plan_entry(d, columns, ridge, BASE_FACET_KEY in keys, e0, e1, minors))
    return plan


def facet_stress_plan(
    d: int,
    columns: Sequence[Sequence[int]],
    adjacency: dict[tuple[int, ...], tuple[int, int]],
    facet_vertices: Callable[[int], tuple[int, ...]],
) -> StressPlan:
    """flat_stress_plan, from one elimination per facet instead of per ridge.

    Each ridge X goes to its first facet S, the base facet for a base
    ridge. With S's vertices sorted, X is S without the one at position p,
    e0, and the ridge's columns (X, e0, e1) are S's columns with e0 moved
    to the end, which takes d-1-p transpositions, and e1's column appended.
    So cramer_numerators of [B_S | e1 of every ridge of S] gives, with that
    sign, the leading block's determinant and its numerators for each
    ridge, from which maximal_minors's rule reads all d+1 minors. A
    singular B_S makes every ridge of S FLAT_RIDGE, as its shadow
    sigma(X, e0) = +-det(B_S) is 0. The plan lists the ridges in adjacency
    order, tuple for tuple equal to flat_stress_plan's.
    """
    assigned: dict[int, list[tuple[int, ...]]] = {}
    for ridge, (key, _) in adjacency.items():
        assigned.setdefault(key, []).append(ridge)
    entries: dict[tuple[int, ...], tuple] = {}
    for key, ridges in assigned.items():
        # the ridge table lists the base facet first
        base = key == BASE_FACET_KEY
        facet = sorted(facet_vertices(key))
        e1s = [extra_vertex(facet_vertices(adjacency[r][1]), r) for r in ridges]
        solved = cramer_numerators(list(zip(*(columns[v] for v in (*facet, *e1s)))))
        for c, (ridge, e1) in enumerate(zip(ridges, e1s)):
            e0 = extra_vertex(facet, ridge)
            minors = None
            if solved is not None:
                det, numerators = solved
                p = facet.index(e0)
                nums = numerators[c]
                # minor j < d-1 omits X_j, at position j or j+1 of S: its sign
                # is maximal_minors's (-1)^(d-1-j) times the move's (-1)^(d-1-p)
                minors = [
                    x if (j + p) % 2 == 0 else -x
                    for j, x in enumerate(nums[:p] + nums[p + 1 :])
                ]
                if (d - 1 - p) % 2:
                    minors += [-nums[p], -det]
                else:
                    minors += [nums[p], det]
            entries[ridge] = _plan_entry(d, columns, ridge, base, e0, e1, minors)
    return [entries[ridge] for ridge in adjacency]


def _plan_entry(
    d: int,
    columns: Sequence[Sequence[int]],
    ridge: tuple[int, ...],
    base: bool,
    e0: int,
    e1: int,
    minors: list[int] | None,
) -> tuple:
    """A ridge's plan tuple from the maximal minors of its columns
    (X, e0, e1), or None for a singular facet block, whose shadow
    sigma(X, e0) is 0."""
    if minors is None or minors[d] == 0 or minors[d - 1] == 0:
        return (ridge, 0, FLAT_RIDGE, base, e0, e1)
    s0, s1 = minors[d], minors[d - 1]
    # an interior ridge has its extra vertices on opposite sides; a base
    # ridge on one side, and the base facet's left/right label flips
    opposite = (s0 > 0) != (s1 > 0)
    failure = None if opposite != base else NO_ORIENTATION
    scale = prod(columns[v][-1] for v in ridge)
    coeffs = [
        (scale if (j + d) % 2 else -scale) * columns[v][-1] * minors[j]
        for j, v in enumerate((*ridge, e0, e1))
    ]
    # left is e0 exactly when s0 > 0 (unless e0's facet is the base),
    # and then det(X, t, s) = -det(X, e0, e1)
    denom = -abs(s0) * s1
    # the scales E_v largely cancel: keep the reduced ratio, over a
    # positive denominator
    g = gcd(*coeffs, denom)
    if denom < 0:
        g = -g
    return (ridge, denom // g, failure, base, e0, e1, *(c // g for c in coeffs))


def plan_stresses(
    plan: StressPlan, nums: Sequence[int], dens: Sequence[int] | None = None
) -> tuple[dict[tuple[int, ...], Pair], dict[tuple[int, ...], str]]:
    """stress_of_ridge for every ridge of a plan, lifted by heights.

    Vertex v's height is nums[v] / dens[v], dens positive; without dens the
    heights are the integers nums. Returns the stresses as pairs and, for
    the ridges where stress_of_ridge would raise, its message instead; both
    in adjacency order. Each stress is one (d+1)-term dot product, over the
    lcm of the ridge's height denominators when there are any.
    """
    stresses: dict[tuple[int, ...], Pair] = {}
    failures: dict[tuple[int, ...], str] = {}
    for ridge, denom, failure, base, e0, e1, *coeffs in plan:
        if base and failure != FLAT_RIDGE:
            # the base facet is the one lying entirely in z = 0
            ridge_flat = not any(nums[v] for v in ridge)
            flat_S = ridge_flat and nums[e0] == 0
            flat_T = ridge_flat and nums[e1] == 0
            if flat_S == flat_T:
                failures[ridge] = BASE_NOT_FLAT
                continue
            if flat_S:
                # left and right swap, and the stress changes sign
                coeffs = [-c for c in coeffs]
        if failure is not None:
            failures[ridge] = failure
            continue
        verts = (*ridge, e0, e1)
        total = 0
        if dens is None:
            for c, v in zip(coeffs, verts):
                total += c * nums[v]
        else:
            scale = lcm(*[dens[v] for v in verts])
            for c, v in zip(coeffs, verts):
                total += c * nums[v] * (scale // dens[v])
            denom *= scale
        stresses[ridge] = (total, denom)
    return stresses, failures
