"""Lifting the flat complex to heights, and ridge stresses two ways.

Each stacking raises its new vertex by a vertical shift above the hyperplane
of the facet it subdivides. One rule gives the shift, for the exact lift and
the perturbed relift alike: the product of the two largest child brackets of
the stacking. On the exact complex child c's bracket is lam * weight[c], so
the shift is the heavy child's rescaled weight times the (common) light
children's, which is what makes every crease of the lifted surface land in
a controlled range: ridge stresses come out >= lam on interior ridges and
strictly inside (-R_eff, 0) on base ridges.

The lift is the flat embedding done one coordinate up. By Cramer's rule
(child j's facet is the node's facet with vertex j replaced by the new
vertex) the child-to-node bracket ratios are the new vertex's barycentric
coordinates in its facet, so flat.stacked_column, given the facet's lifted
rows and the child brackets, places the new vertex at its flat point and on
the facet's hyperplane; the shift then raises it. The lift takes no
determinant, and it checks each placed vertex against the complex's own
column, so the stress routes below lift the complex's own points.

Stresses are computed from scratch per ridge (the creasing of its two
facets: exact.facet_planes takes one hyperplane per facet of the lifted
complex, and exact.ridge_stresses, the rule the certificate applies too,
one dot product per ridge), and independently by replaying the stackings
with two local update rules: subdividing a facet creates the new interior
ridges with a known positive stress and lowers each boundary ridge of the
facet by the shift over the incident new facet's volume. The two routes
agree exactly on every ridge of a shift-defined lifting. Both list their
stresses by ridge number, in ridge_adjacency's order (flat.build_flat's
walk), the replay by the numbers node_ridges gives by facet position, so
the cross-check zips the table with the two lists, with no ridge key and
no lookup. build_lifted, the one entry point of the exact lift and the
perturbed relift alike, takes a complex alone: it lifts by that complex's
own shifts (adjusted_shifts), takes both routes and raises on the first
ridge where they disagree.

Nothing between the brackets and the gates is a Fraction. The complex
holds its brackets as integers under one common scale k (R on the exact
complex, 1 on the perturbed one, whose brackets are integer grid units) and
its vertices as integer homogeneous columns (D, N...). The lift extends
them to the primitive rows (D, X..., Z), D > 0, that the stress kernel
takes, the height of vertex v being Z / D. The shifts are integers too, the
real ones times k^2, so both lifts run in scaled units: heights are the
real ones times k^2, and both stress routes give integer pairs
(exact.Pair), not necessarily in lowest terms. The cross-check compares
them by cross-multiplication and, in the same pass, keeps the least
interior and the least and greatest base stress; each gate divides these
three by its lift's scale once, and they are the only Fractions the gates
compare and report.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import GeometryError, StageInvariantError
from .exact import Pair, facet_planes, ridge_stresses
from .facets import BASE_FACET_KEY, Ridge
from .flat import FlatComplex, stacked_column


def lift_heights(flat: FlatComplex, zeta: dict[int, int]) -> list[tuple[int, ...]]:
    """Replay the stackings, raising each new vertex by its shift.

    Returns each vertex's lifted row (D, X..., Z), its height Z / D: a base
    vertex's column with Z = 0, and each stacking's vertex, the next id as
    in build_flat's walk, placed by stacked_column from its facet's rows
    and the child brackets (which a common bracket scale leaves alone),
    then raised by shift * D. The placed row is primitive, as
    gcd(D, X, Z + shift D) = gcd(D, X, Z). Heights are linear in the
    shifts, so adjusted_shifts' shifts, the real ones times k^2, give the
    real heights times k^2. Shifts and node brackets are positive by
    construction, and Cramer's rule makes each placed (D, X) a multiple of
    the vertex's own column; a stage error names the stacking or vertex
    where one of these fails.
    """
    brackets, layout, coords = flat.node_brackets, flat.node_facets, flat.coords
    children = flat.tree.children
    rows = [(*c, 0) for c in coords[: flat.d]]
    for node in flat.tree.interior_ids:
        shift, shadow = zeta[node], brackets[node]
        if shift <= 0:
            raise StageInvariantError(
                "lifting", f"node {node} has vertical shift {shift}, not positive", node
            )
        if shadow <= 0:
            raise StageInvariantError(
                "lifting", f"node {node} has bracket {shadow}, not positive", node
            )
        D, *X, Z = stacked_column(
            [rows[u] for u in layout[node]], [brackets[c] for c in children[node]], shadow
        )
        p = len(rows)
        col = coords[p]
        m = D // col[0]
        if [D, *X] != [m * x for x in col]:
            raise StageInvariantError(
                "lifting", f"vertex {p} placed off its flat column {col}", p
            )
        rows.append((D, *X, Z + shift * D))
    return rows


def direct_stresses(flat: FlatComplex, rows: list[tuple[int, ...]]) -> list[Pair]:
    """Stress list by ridge number, from one hyperplane per facet of the lift.

    rows[v] is vertex v lifted, as an integer homogeneous row (D, X..., Z),
    D > 0. Raises the GeometryError of the first ridge, in adjacency order,
    whose stress is undefined.
    """
    planes = facet_planes(flat.d, rows, flat.facet_table)
    stresses = ridge_stresses(flat.d, rows, flat.ridge_adjacency, planes)
    for stress in stresses:
        if type(stress) is str:
            raise GeometryError(stress)
    return stresses


def incremental_stresses(flat: FlatComplex, zeta: dict[int, int]) -> list[Pair]:
    """Stress list by ridge number, replaying the stackings with local updates.

    Before the first stacking the surface is flat, so the base boundary
    ridges start at stress zero. Stacking with shift zeta on a facet D:
    every boundary ridge of D drops by zeta over the volume of its new
    incident facet; every ridge between two new facets S, T starts at
    zeta * |D| / (|S| |T|). With the brackets held as integers under the
    scale k, these are zeta k / |S| and zeta k |D| / (|S| |T|). The replay
    runs over the complex's ridge numbers (node_ridges): ridge j of the
    facet is child j's boundary ridge, and the new ridges come in their
    numbering order, which is ridge_adjacency's.
    """
    brackets, scale = flat.node_brackets, flat.bracket_scale
    node_ridges, children = flat.node_ridges, flat.tree.children
    d = flat.d
    st: list[Pair] = [(0, 1)] * d
    for node in flat.tree.interior_ids:
        num = zeta[node] * scale
        cbr = [abs(brackets[c]) for c in children[node]]
        dbr = abs(brackets[node])
        for r, c in zip(node_ridges[node], cbr):
            a, b = st[r]
            # the drop t / c in lowest terms, over the lcm of b and c: the
            # drop is mostly an integer or shares the ridge's denominator,
            # so a ridge that many stackings lower keeps a small one
            g = gcd(num, c)
            t, c = num // g, c // g
            g = gcd(b, c)
            c //= g
            st[r] = (a * c - t * (b // g), b * c)
        for i in range(d):
            for j in range(i + 1, d):
                st.append((num * dbr, cbr[i] * cbr[j]))
    return st


def adjusted_shifts(flat: FlatComplex) -> dict[int, int]:
    """Shift of each stacking: the product of its two largest child brackets.

    The stored brackets are the real ones times the complex's bracket scale
    k, so each shift is the real one times k^2: R^2 on the exact complex,
    s^2 on a perturbed one, whose brackets are in grid units (k = 1).
    """
    brackets = flat.node_brackets
    children = flat.tree.children
    out: dict[int, int] = {}
    for node in flat.tree.interior_ids:
        vols = sorted(abs(brackets[c]) for c in children[node])
        out[node] = vols[-1] * vols[-2]
    return out


Extrema = tuple[tuple[int, int, Ridge], ...]  # (numerator, denominator, ridge) each


def build_lifted(flat: FlatComplex) -> tuple[list[tuple[int, ...]], Extrema]:
    """Lifted rows by the complex's own shifts, and the least interior and
    the least and greatest base stress of the direct stresses,
    cross-checked against the incremental replay.

    Both list one stress per ridge number, the direct one per entry of
    ridge_adjacency, so their lengths are checked first; then one pass
    zips the table with both, and any ridge disagreement raises, since the
    two routes must match exactly for any shift-defined lifting. The same
    pass keeps the three extrema, in scaled units, ties to the first ridge
    in adjacency order. Every construction gate compares them against its
    own bounds, so a gate holds on all ridges exactly when it holds on
    them. Pairs are compared by cross-multiplication.
    """
    zeta = adjusted_shifts(flat)
    rows = lift_heights(flat, zeta)
    direct = direct_stresses(flat, rows)
    incremental = incremental_stresses(flat, zeta)
    if len(incremental) != len(direct):
        raise StageInvariantError(
            "lifting", f"stress lists of {len(direct)} and {len(incremental)} ridges"
        )
    interior = base_lo = base_hi = None  # (numerator, denominator, ridge)
    adjacency = flat.ridge_adjacency.items()
    for (ridge, keys), (n1, d1), (n2, d2) in zip(adjacency, direct, incremental):
        if n1 * d2 != n2 * d1:
            raise StageInvariantError(
                "lifting",
                f"stress mismatch on ridge {ridge}: "
                f"direct {n1}/{d1}, incremental {n2}/{d2}",
                ridge,
            )
        if BASE_FACET_KEY in keys:
            if base_lo is None or n1 * base_lo[1] < base_lo[0] * d1:
                base_lo = (n1, d1, ridge)
            if base_hi is None or n1 * base_hi[1] > base_hi[0] * d1:
                base_hi = (n1, d1, ridge)
        elif interior is None or n1 * interior[1] < interior[0] * d1:
            interior = (n1, d1, ridge)
    return rows, (interior, base_lo, base_hi)


def check_lift_bounds(
    flat: FlatComplex, rows: list[tuple[int, ...]], extrema: Extrema
) -> dict[str, Fraction]:
    """Stage gate: interior stresses >= 1, base stresses inside (-R_eff, 0).

    The lift by adjusted_shifts has stresses times k^2, k the bracket
    scale; build_lifted's extrema are divided by it once, then gated and
    returned in real units. Any violation is an implementation bug, not an
    input problem, hence the stage error.
    """
    R_eff, k2 = flat.R_eff, flat.bracket_scale**2
    (w_in, r_in), (w_lo, r_lo), (w_hi, r_hi) = [
        (Fraction(n, den * k2), ridge) for n, den, ridge in extrema
    ]
    if w_in < 1:
        raise StageInvariantError(
            "lifting", f"interior ridge {r_in} stress {w_in} below 1", r_in
        )
    for w, ridge in ((w_lo, r_lo), (w_hi, r_hi)):
        if not -R_eff < w < 0:
            raise StageInvariantError(
                "lifting", f"base ridge {ridge} stress {w} outside (-{R_eff}, 0)", ridge
            )
    low = next((v for v, r in enumerate(rows) if v >= flat.d and r[-1] <= 0), None)  # D > 0
    if low is not None:
        raise StageInvariantError("lifting", "non-base vertex at or below height 0", low)
    return {
        "min_interior_stress": w_in,
        "min_base_stress": w_lo,
        "max_base_stress": w_hi,
    }
