"""Exact rational geometry kernel.

Everything downstream reduces to signed simplex volumes ("brackets") of
point sequences, evaluated exactly over the rationals. The bracket of k
points in Q^{k-1} is the determinant of the matrix whose columns are the
points with a row of ones appended; it equals (k-1)! times the signed
volume of their simplex. On top of it sit:

- height_on_hyperplane: the z-value of the hyperplane spanned by d lifted
  points above a given flat point,
- creasing: how two lifted facets sharing a ridge fold along it,
- stress_of_ridge: the creasing with a fixed orientation convention, which
  is the quantity whose sign pattern certifies convexity. It is the
  per-ridge reference definition;
- the flat stress plan: the same stresses for every ridge of a complex.
  flat_stress_plan does all the work the heights leave alone, once per
  flat complex, and plan_stresses lifts it by one set of heights. This is
  what the pipeline and the verifier evaluate.

Determinants are computed fraction-free: each point is scaled to an integer
homogeneous column (p D, D), D the lcm of its denominators, and the integer
determinant (Bareiss) is divided by the product of scales. This keeps
Fraction normalization out of the O(k^3) loop. maximal_minors gives all
d+1 maximal minors of a d x (d+1) integer matrix from one fraction-free
Gauss-Jordan elimination. A ridge's creasing determinant, expanded along
its height column, is the dot product of the heights with those minors of
the ridge's flat columns, and its two facet shadows are two of the minors;
so the plan takes one elimination per ridge, and each lift of the complex
one (d+1)-term dot product and one Fraction per ridge.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Sequence

from .errors import GeometryError

Rat = Fraction
Point = tuple[Fraction, ...]
PointSeq = tuple[Point, ...]

BASE_FACET_KEY = -1  # facet-table key for the base facet

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


def maximal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """All d+1 maximal minors of a d x (d+1) integer matrix.

    Entry j is the determinant of the matrix without its column j. One
    fraction-free Gauss-Jordan elimination (Bareiss's exact division, on
    the rows above each pivot too) takes [B | b], B the leading d x d
    block, to [det(B) I | adj(B) b]. By Cramer's rule, entry j < d of
    adj(B) b is the determinant of B with column j replaced by b, which is
    minor j after moving b to the end past d-1-j columns. A singular B
    falls back to one determinant per minor. At d = 3 the closed form from
    the six 2 x 2 minors of the last two rows is cheaper than elimination.
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
                return [
                    _det_int([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(d + 1)
                ]
        pivot = a[k][k]
        row_k = a[k]
        for i in range(d):
            if i != k:
                row_i = a[i]
                lead = row_i[k]
                for j in range(k + 1, d + 1):
                    row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    minors = [
        sign * r[d] if (d - 1 - j) % 2 == 0 else -sign * r[d] for j, r in enumerate(a)
    ]
    minors.append(sign * prev)
    return minors


def homogeneous_column(p: Sequence) -> list[int]:
    """The integer column (p D, D), D the lcm of the denominators of p.

    Scaling a bracket column by D multiplies the determinant by D, so an
    integer determinant of such columns divided by the product of their
    last entries is the rational bracket.
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


def height_on_hyperplane(
    facet: Sequence[Sequence], p: Sequence, facet_shadow: Fraction | None = None
) -> Fraction:
    """Height of the hyperplane through d lifted points above flat point p.

    `facet` holds d points in Q^d whose projections span a nondegenerate
    simplex; p lives in Q^{d-1}. The value is the bracket of facet with
    (p, 0) appended, divided by the projected facet bracket. The sign
    convention makes the plane through the standard basis points of Q^3
    evaluate to 1 at the origin.

    facet_shadow, if given, must equal the projected bracket of `facet` in
    the same order (callers that cache facet volumes pass it to skip one
    determinant).
    """
    d = len(facet)
    shadow = facet_shadow
    if shadow is None:
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


# A flat stress plan holds one tuple per ridge X, in adjacency order:
#   (X, denominator, failure, base, e0, e1, c_0, ..., c_d)
# e0 and e1 are the extra vertices of the ridge's two facets; the stress is
# sum_j c_j z_j / denominator over the heights z of (X..., e0, e1). failure
# is FLAT_RIDGE or NO_ORIENTATION when the heights cannot change it (else
# None), and base marks a base ridge, whose base facet the heights tell.
# Flat tuples keep the plan small: it is the largest object alive while
# the perturbed complex is relifted.
StressPlan = list[tuple]


def flat_stress_plan(
    d: int,
    flat_coords: Sequence[Sequence],
    adjacency: dict[tuple[int, ...], tuple[int, int]],
    facet_vertices: Callable[[int], tuple[int, ...]],
) -> StressPlan:
    """Everything of stress_of_ridge, on every ridge, that heights leave alone.

    flat_coords[v] is the horizontal position of vertex v, in Q^{d-1}.
    adjacency maps each ridge X to its two facet keys; e0 and e1 are the
    extra vertices of those facets, and a ridge with the key BASE_FACET_KEY
    is a base ridge (base_flag). The plan lists the ridges in adjacency
    order.

    With E_v the lcm of v's flat denominators, the flat homogeneous columns
    (x E_v, E_v) of the d+1 vertices (X, e0, e1) have d+1 maximal minors,
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
    columns = [homogeneous_column(p) for p in flat_coords]
    plan: StressPlan = []
    for ridge, keys in adjacency.items():
        base = BASE_FACET_KEY in keys
        e0, e1 = (_extra_vertex(facet_vertices(k), ridge) for k in keys)
        verts = (*ridge, e0, e1)
        # rows are coordinates, so each minor omits one vertex
        minors = maximal_minors(list(zip(*(columns[v] for v in verts))))
        s0, s1 = minors[d], minors[d - 1]
        if s0 == 0 or s1 == 0:
            plan.append((ridge, 0, FLAT_RIDGE, base, e0, e1))
            continue
        # an interior ridge has its extra vertices on opposite sides; a base
        # ridge on one side, and the base facet's left/right label flips
        opposite = (s0 > 0) != (s1 > 0)
        failure = None if opposite != base else NO_ORIENTATION
        scale = prod(columns[v][-1] for v in ridge)
        coeffs = [
            (scale if (j + d) % 2 else -scale) * columns[v][-1] * minors[j]
            for j, v in enumerate(verts)
        ]
        # left is e0 exactly when s0 > 0 (unless e0's facet is the base),
        # and then det(X, t, s) = -det(X, e0, e1)
        denom = -abs(s0) * s1
        # the scales E_v largely cancel: keep the reduced ratio
        g = gcd(*coeffs, denom)
        plan.append((ridge, denom // g, failure, base, e0, e1, *(c // g for c in coeffs)))
    return plan


def _extra_vertex(facet: tuple[int, ...], ridge: tuple[int, ...]) -> int:
    """The vertex of `facet` that is not on `ridge`."""
    return next(v for v in facet if v not in ridge)


def plan_stresses(
    plan: StressPlan, heights: Sequence
) -> tuple[dict[tuple[int, ...], Fraction], dict[tuple[int, ...], str]]:
    """stress_of_ridge for every ridge of a plan, lifted by `heights`.

    heights[v] is the rational height of vertex v. Returns the stresses
    and, for the ridges where stress_of_ridge would raise, its message
    instead; both in adjacency order. Each stress is one (d+1)-term dot
    product over the common denominator of the ridge's heights, and one
    Fraction.
    """
    nums = [h.numerator for h in heights]
    dens = [h.denominator for h in heights]
    stresses: dict[tuple[int, ...], Fraction] = {}
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
                denom = -denom
        if failure is not None:
            failures[ridge] = failure
            continue
        verts = (*ridge, e0, e1)
        scale = lcm(*[dens[v] for v in verts])
        total = 0
        for c, v in zip(coeffs, verts):
            total += c * nums[v] * (scale // dens[v])
        stresses[ridge] = Fraction(total, denom * scale)
    return stresses, failures
