"""Exact integer geometry: facet planes and ridge stresses.

The construction's lifts and the certificate take every ridge stress from
two functions here, on the facet-table format of the facets module and
each vertex as an integer homogeneous row (D, X..., Z), D > 0.
facet_planes takes each facet's hyperplane once, as the d+1 cofactors of
its rows, the last of them its shadow (its projection's bracket).
ridge_stresses reads each ridge's stress off its two facets' planes, one
(d+1)-term integer dot product per ridge, and lists one entry per ridge
in its ridge table's order: an integer pair (Pair), compared by
cross-multiplication, or the reason the stress is undefined.

Determinants are fraction-free: a Laplace expansion compiled once per
size (_expansion) up to 7 x 7, which also gives a facet's whole plane in
one call up to d = 6, and Bareiss elimination (_eliminate) above.

The Fraction definitions the two are held to are the reference, which
only the tests and the benchmark's tracer read: bracket, the signed
(k-1)!-scaled volume of k points in Q^{k-1} (the determinant of the
points as columns over a ones row); creasing, how two lifted facets
sharing a ridge fold along it; and stress_of_ridge, the creasing with
the orientation convention whose sign pattern certifies convexity.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Callable, Sequence

from .errors import GeometryError
from .facets import BASE_FACET_KEY

Point = tuple[Fraction, ...]
PointSeq = tuple[Point, ...]

# stress_of_ridge raises these; ridge_stresses reports them per ridge
FLAT_RIDGE = "flat degeneracy: facet extra point on ridge span"
BASE_NOT_FLAT = "base_flag set but base facet is not identifiable by z = 0"
NO_ORIENTATION = "no consistent left/right orientation for ridge"


def as_point(values: Sequence) -> Point:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def as_point_seq(points: Sequence[Sequence]) -> PointSeq:
    return tuple(as_point(p) for p in points)


@cache
def _expansion(n: int, plane: bool) -> Callable:
    """A division-free Laplace expansion down n rows, compiled on first use:
    with plane false, the determinant of an n x n integer matrix; with
    plane true, the Plane of a facet from all rows and its n vertex ids,
    ascending: the cofactors of det[S | q], S its n x (n+1) rows (entry j
    is (-1)^(n+j) times the minor without column j, the last its shadow),
    the product of its rows' D and its id sum."""
    m = n + plane
    rows = [[f"r{i}_{j}" for j in range(m)] for i in range(n)]
    ids = [f"v{i}" if plane else str(i) for i in range(n)]
    lines = [f"def expansion({', '.join(['rows', *ids]) if plane else 'rows'}):"]
    lines += [f"    {', '.join(r)}, = rows[{v}]" for r, v in zip(rows, ids)]
    minor = {(j,): rows[-1][j] for j in range(m)}
    for k, top in enumerate(reversed(rows[:-1]), 2):
        for cols in combinations(range(m), k):
            terms = [f"{top[c]} * {minor[cols[:i] + cols[i + 1 :]]}" for i, c in enumerate(cols)]
            minor[cols] = "s" + "_".join(map(str, cols))
            signed = "".join(f" {'+-'[i % 2]} {t}" for i, t in enumerate(terms))
            lines.append(f"    {minor[cols]} = {signed[3:]}")
    # the minors in reverse lexicographic order: entry j drops column j
    minors = [minor[cols] for cols in reversed(list(combinations(range(m), n)))]
    result = minors[0]
    if plane:
        cof = ", ".join("-" * ((n + j) % 2) + x for j, x in enumerate(minors))
        result = f"[{cof}], {' * '.join(r[0] for r in rows)}, {' + '.join(ids)}"
    exec("\n".join([*lines, f"    return {result}"]), scope := {})
    return scope["expansion"]


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """Fraction-free elimination, by Bareiss's exact division, of a copy of
    d x m integer rows: det(B), B the leading d x d block, and the rows, or
    0 and None when B is singular. For m > d it clears above each pivot too
    (Gauss-Jordan), so [B | C] becomes [det(B) I | adj(B) C]. A row swap
    negates one row, which keeps det(B) and the solution of B x = C."""
    d, m = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    prev = 1
    for k in range(d):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, d) if a[i][k]), None)
            if i is None:
                return 0, None
            a[k], a[i] = a[i], [-x for x in a[k]]
        row_k = a[k]
        pivot = row_k[k]
        cols = range(k + 1, m)
        for i in range(k + 1, d) if m == d else range(d):
            if i != k:
                row_i = a[i]
                lead = row_i[k]
                for j in cols:
                    # exact division: Bareiss guarantees divisibility by prev
                    row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return prev, a


def _det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix, left unchanged: _expansion
    up to 7 x 7, _eliminate above that."""
    n = len(a)
    if n <= 7:
        return _expansion(n, False)(a)
    return _eliminate(a)[0]


def maximal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The d+1 maximal minors of a d x (d+1) integer matrix, signed as the
    cofactors of det[rows | q]: entry j is (-1)^(d+j) times the minor
    without column j.

    By _eliminate, with B the leading d x d block, entry d is det(B) and
    entry j < d the negated Cramer numerator det(B with column j replaced
    by the last column), since moving that column to the end passes d-1-j
    others. A singular B falls back to one determinant per minor.
    """
    d = len(rows)
    det, a = _eliminate(rows)
    if a is None:
        minors = [_det_int([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(d + 1)]
        return [m if (d + j) % 2 == 0 else -m for j, m in enumerate(minors)]
    return [-r[d] for r in a] + [det]


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
# A facet's (cofactors, product of its rows' D_v, vertex id sum); its
# shadow is cofactors[d]
Plane = tuple[list[int], int, int]


def facet_planes(
    d: int, rows: Sequence[Sequence[int]], facets: dict[int, Sequence[int]]
) -> dict[int, Plane]:
    """One hyperplane per facet, its Plane, from one kernel call each.

    rows[v] is vertex v's lifted point as an integer homogeneous row
    (D_v, X_v..., Z_v), D_v > 0: the point (X_v, Z_v) / D_v; facets maps
    every key (BASE_FACET_KEY too) to d distinct vertices. The d+1 signed
    maximal minors of facet S's rows, sorted, are the cofactors of
    h_S(q) = det[S | q] (the row q appended); the last, without the Z
    column, is S's shadow sigma(S). The kernel is _expansion's, fetched
    once, up to d = 6, and maximal_minors above.
    """
    if d <= 6:
        plane = _expansion(d, True)
        return {key: plane(rows, *sorted(verts)) for key, verts in facets.items()}
    planes = {}
    for key, verts in facets.items():
        cof = maximal_minors([rows[v] for v in sorted(verts)])
        planes[key] = (cof, prod(rows[v][0] for v in verts), sum(verts))
    return planes


def ridge_stresses(
    d: int,
    rows: Sequence[Sequence[int]],
    adjacency: dict[tuple[int, ...], tuple[int, int]],
    planes: dict[int, Plane],
) -> list[Pair | str]:
    """stress_of_ridge for every ridge, from the facet_planes of rows.

    adjacency maps each ridge X, sorted, to its two facet keys; a ridge of
    the base facet (BASE_FACET_KEY) is a base ridge (base_flag). Returns
    one entry per ridge, in adjacency order: its stress as a pair or, where
    stress_of_ridge would raise, its message.

    A ridge X of facets S and T, with extra vertices e0 and e1, has the
    stress -det(X, e0, e1) / (|sigma(X, e0)| sigma(X, e1)) in bracket terms
    (ones row last), negated when e0's facet is the base. With e0 at
    position p of sorted S, moving e0 to the end of S takes d-1-p
    transpositions and moving the D column from first to last takes d (in
    a shadow, d-1), so det(X, e0, e1) = (-1)^(p+1) h_S(e1) and
    sigma(X, e0) = (-1)^p sigma(S); likewise sigma(X, e1) = (-1)^q sigma(T).
    Each row's D_v scales every minor it enters, which leaves the stress
    h_S(e1) prod(D_v, v in X) / |sigma(S) sigma(T)| up to its sign. So a
    ridge costs one (d+1)-term dot product, and the scale is skipped when
    every D_v is 1.
    """
    stresses: list[Pair | str] = []
    for ridge, (k1, k2) in adjacency.items():
        cof, scale, sum_S = planes[k1]
        cof_T, _, sum_T = planes[k2]
        # a facet's extra vertex is its vertex sum less the ridge's
        on_ridge = sum(ridge)
        e0, e1 = sum_S - on_ridge, sum_T - on_ridge
        # positions in the sorted facets; only their parity matters
        p, q = bisect_left(ridge, e0), bisect_left(ridge, e1)
        s0 = -cof[d] if p % 2 else cof[d]
        s1 = -cof_T[d] if q % 2 else cof_T[d]
        if s0 == 0 or s1 == 0:
            stresses.append(FLAT_RIDGE)
            continue
        is_base = BASE_FACET_KEY in (k1, k2)
        flip = False
        if is_base:
            # the base facet is the one lying entirely in z = 0
            ridge_flat = not any(rows[v][d] for v in ridge)
            flat_S = ridge_flat and rows[e0][d] == 0
            flat_T = ridge_flat and rows[e1][d] == 0
            if flat_S == flat_T:
                stresses.append(BASE_NOT_FLAT)
                continue
            # left and right swap, and the stress changes sign
            flip = flat_S
        # an interior ridge has its extra vertices on opposite sides; a base
        # ridge on one side, and the base facet's left/right label flips
        if ((s0 > 0) != (s1 > 0)) == is_base:
            stresses.append(NO_ORIENTATION)
            continue
        h = sum(map(mul, cof, rows[e1]))
        # -det(X, e0, e1) = (-1)^p h_S(e1); over |s0 s1| > 0 the numerator
        # takes s1's sign
        num = -h if (p % 2 == 1) ^ (s1 < 0) ^ flip else h
        if scale != 1:
            num *= scale // rows[e0][0]
        stresses.append((num, abs(s0 * s1)))
    return stresses
