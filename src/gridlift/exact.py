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
- stress_table: the same stresses for every ridge of a lifted complex at
  once, which is what the pipeline and the verifier evaluate.

Determinants are computed fraction-free: each point is scaled to an integer
homogeneous column (p D, D), D the lcm of its denominators, and the integer
determinant (Bareiss) is divided by the product of scales. This keeps
Fraction normalization out of the O(k^3) loop. stress_table converts every
vertex once per table, evaluates each facet's projected determinant
("shadow") once, and then needs one (d+1)x(d+1) determinant and one
Fraction per ridge.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Sequence

from .errors import GeometryError

Rat = Fraction
Point = tuple[Fraction, ...]
PointSeq = tuple[Point, ...]

BASE_FACET_KEY = -1  # facet-table key for the base facet

_ZERO = Fraction(0)

# stress_of_ridge raises these; stress_table reports them per ridge
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


def stress_table(
    d: int,
    columns: Sequence[Sequence[int]],
    adjacency: dict[tuple[int, ...], tuple[int, int]],
    facet_vertices: Callable[[int], tuple[int, ...]],
) -> tuple[dict[tuple[int, ...], Fraction], dict[tuple[int, ...], str]]:
    """stress_of_ridge for every ridge of a lifted complex, from integers.

    columns[v] is homogeneous_column of lifted vertex v, (x D_v, z D_v, D_v).
    adjacency maps each ridge to its two facet keys, and a ridge with the
    key BASE_FACET_KEY is a base ridge (base_flag). Returns the stresses
    and, for the ridges where stress_of_ridge would raise, its message
    instead; both in adjacency order.

    Dropping the z entry of the columns gives the integer shadow sigma of a
    facet, its projected bracket times the product of its D_v. It is
    evaluated once per facet in stored vertex order and signed for each
    ridge by the parity of the reordering to (ridge..., extra vertex). With
    left facet extra vertex s and right facet extra vertex t, the creasing
    bracket(X, t, s) / (bracket shadow_left * bracket shadow_right) turns
    into det(X, t, s) * prod(D_v, v in X) / (sigma_left * sigma_right).
    """
    shadows: dict[int, int] = {}
    stresses: dict[tuple[int, ...], Fraction] = {}
    failures: dict[tuple[int, ...], str] = {}
    for ridge, keys in adjacency.items():
        extras = []
        sigmas = []
        for key in keys:
            facet = facet_vertices(key)
            sigma = shadows.get(key)
            if sigma is None:
                sigma = _det_int([[*columns[v][: d - 1], columns[v][d]] for v in facet])
                shadows[key] = sigma
            j = next(i for i, v in enumerate(facet) if v not in ridge)
            order = [facet.index(v) for v in ridge] + [j]
            odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]) % 2
            extras.append(facet[j])
            sigmas.append(-sigma if odd else sigma)
        if sigmas[0] == 0 or sigmas[1] == 0:
            failures[ridge] = FLAT_RIDGE
            continue
        sides = [sigmas[0] > 0, sigmas[1] > 0]
        if BASE_FACET_KEY in keys:
            ridge_flat = all(columns[v][d - 1] == 0 for v in ridge)
            flat_S, flat_T = (ridge_flat and columns[e][d - 1] == 0 for e in extras)
            if flat_S == flat_T:
                failures[ridge] = BASE_NOT_FLAT
                continue
            # the base facet's left/right label is interchanged
            if flat_S:
                sides[0] = not sides[0]
            else:
                sides[1] = not sides[1]
        if sides[0] == sides[1]:
            failures[ridge] = NO_ORIENTATION
            continue
        left, right = (0, 1) if sides[0] else (1, 0)
        rows = [list(columns[v]) for v in ridge]
        rows.append(list(columns[extras[right]]))
        rows.append(list(columns[extras[left]]))
        stresses[ridge] = Fraction(
            _det_int(rows) * prod(columns[v][d] for v in ridge),
            sigmas[left] * sigmas[right],
        )
    return stresses, failures
