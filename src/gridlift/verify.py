"""Certify convexity of an integer realization from its coordinates alone.

Two routes, each making all of its own checks and writing its own
witnesses, read one _surface: the ridge table and the plane table, where
exact.facet_planes takes each facet's hyperplane once, on the rows
(1, x, z) of its integer vertices, as d+1 cofactors (the last its
shadow) and its vertex sum.

* stress route: recompute every ridge stress from the final coordinates,
  never taken from the construction, and check interior ridges positive,
  base ridges negative, all heights nonnegative with the base flat at
  height zero. exact.ridge_stresses reads a ridge's creasing determinant
  off one facet's plane at the other facet's extra vertex, and its two
  shadows off the two planes, signed by position. Each stress is an
  integer over a positive denominator, so its numerator's sign decides; a
  Fraction is made only for a witness;
* global route: the linear-size convex-polytope checker of Mehlhorn,
  Naeher, Seel, Seidel, Schilz, Schirra and Uhrig ("Checking geometric
  programs or verification of geometric structures", Comput. Geom. 12,
  1999). The facets must form a closed surface using every vertex, the
  vertex centroid must lie strictly inside every facet hyperplane (which
  orients each plane), the surface must be strictly convex at every ridge,
  and the ray from the centroid through the base facet must cross no
  other facet.

The tests hold the global route to the textbook definition, every facet's
hyperplane, by cofactors of its own, against every vertex in O(F n) work;
it lives with them in tests/reference.py, not in the trusted code.

On the class this pipeline emits (base flat at height zero, everything
else strictly above, no degenerate shadows) the stress and global routes
agree; the certificate records both verdicts so disagreement is visible
instead of masked. The pipeline checks its snapped integers only here: the
stress route's height precheck and stress signs, and verify_bounds' caps.

The _surface first rejects a vertex that is not a point of d ints (bools
are not), with the witness verify_bounds gives, a leaf key that is not an
int >= 0 (the base's key included), a facet that is not a tuple, and a
facet naming a vertex id outside the coordinate list, so a malformed
realization fails a certificate instead of raising or aliasing a vertex
or the base; a malformed tree is InvalidInputError (check_tree).

The verifier imports from the package only errors, exact (the integer
determinant kernels, the plane table and the per-ridge stress rule, which
the construction is a client of too) and facets (the facet-table format,
the ridge table, the tree check and the replay, which the construction's
own walk does not call), so no construction stage is trusted code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import GeometryError
from .exact import _det_int, facet_planes, ridge_stresses
from .facets import BASE_FACET_KEY, Realization, TreeRep, build_ridge_adjacency
from .facets import check_tree, facet_layout


@dataclass
class Certificate:
    convex_by_stress: bool
    convex_global: bool
    bounds_ok: bool | None = None
    combinatorics_ok: bool | None = None
    witnesses: list[str] = field(default_factory=list)
    # the stress route's least interior stress as (numerator, denominator),
    # in the output's units; not serialized
    min_interior_stress: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        parts = (self.convex_by_stress, self.convex_global, self.bounds_ok, self.combinatorics_ok)
        return all(p for p in parts if p is not None)


def _is_integer_point(p: tuple, d: int) -> bool:
    return len(p) == d and all(type(c) is int for c in p)


def _input_witnesses(realization: Realization) -> list[str]:
    """What every route rejects before it sorts the facets or indexes a
    point (mixed keys do not sort, a negative id or a bool aliases a
    vertex, and a set of ids hides a bool)."""
    d, n = realization.d, len(realization.coords)
    witnesses = [
        f"vertex {vid} is not an integer point of length {d}"
        for vid, p in enumerate(realization.coords)
        if not _is_integer_point(p, d)
    ]
    unsorted = [(BASE_FACET_KEY, realization.base_facet), *realization.facets.items()]
    shape = [f"facet {_label(k)} is not a tuple" for k, vs in unsorted if type(vs) is not tuple]
    for key in realization.facets:
        if key == BASE_FACET_KEY:  # _surface's merge would drop one
            shape.append(f"a leaf facet has the base facet's key {BASE_FACET_KEY}")
        elif type(key) is not int or key < 0:
            shape.append(f"leaf facet key {key!r} is not an int >= 0")
    if shape:
        return witnesses + shape
    return witnesses + [
        f"facet {_label(key)} names vertex {v!r}, not one of 0..{n - 1}"
        for key, verts in _facets_in_order(realization)
        for v in verts
        if not (type(v) is int and 0 <= v < n)
    ]


def _surface(realization: Realization) -> tuple[list[str], dict | str | None, tuple | None]:
    """The _input_witnesses; if none, the table ridge -> its two facets, or
    the reason the facets form no closed surface (a facet is not d distinct
    vertices, or a ridge not in two facets); if closed, the rows (1, *p) of
    the points and their exact.facet_planes."""
    witnesses = _input_witnesses(realization)
    if witnesses:
        return witnesses, None, None
    facets = {BASE_FACET_KEY: realization.base_facet, **realization.facets}
    try:
        table = build_ridge_adjacency(realization.d, facets)
    except GeometryError as exc:
        return [], str(exc), None
    rows = [(1, *p) for p in realization.coords]
    return [], table, (rows, facet_planes(realization.d, rows, facets))


def verify_convexity_stress(realization: Realization) -> tuple[bool, list[str]]:
    """Interior ridge stresses positive, base negative, base flat at 0."""
    witnesses, table, plane_table = _surface(realization)
    if not witnesses:
        witnesses, _ = _stress_route(realization, table, plane_table)
    return not witnesses, witnesses


def _stress_route(
    realization: Realization, table: dict | str, plane_table: tuple | None
) -> tuple[list[str], tuple[int, int] | None]:
    """The stress route on the _surface of input that passed its check: the
    witnesses, and the least interior stress (ties to the first ridge in
    adjacency order; None if it stops before the stresses). It zips the
    table with exact.ridge_stresses' list: one dot product per ridge.
    """
    witnesses: list[str] = []
    heights = [p[-1] for p in realization.coords]

    for vid, z in enumerate(heights):
        if z < 0:
            witnesses.append(f"vertex {vid} below height zero")
    base_set = set(realization.base_facet)
    for vid in realization.base_facet:
        if heights[vid] != 0:
            witnesses.append(f"base vertex {vid} not at height zero")
    for vid, z in enumerate(heights):
        if vid not in base_set and z == 0:
            witnesses.append(f"non-base vertex {vid} at height zero")
    if witnesses:
        return witnesses, None

    if isinstance(table, str):
        return [f"ridge structure broken: {table}"], None

    rows, planes = plane_table
    least = None
    stresses = ridge_stresses(realization.d, rows, table, planes)
    for (ridge, keys), stress in zip(table.items(), stresses):
        if type(stress) is str:
            witnesses.append(f"ridge {ridge}: {stress}")
            continue
        num, den = stress
        # a base ridge folds by 0 only under a non-base vertex at height
        # zero, which the precheck rejects, so num is never 0 there
        if BASE_FACET_KEY in keys:
            if num >= 0:
                witnesses.append(f"base ridge {ridge} has stress {Fraction(num, den)} >= 0")
            continue
        if num <= 0:
            witnesses.append(f"interior ridge {ridge} has stress {Fraction(num, den)} <= 0")
        if least is None or num * least[1] < least[0] * den:
            least = (num, den)
    return witnesses, least


def _facets_in_order(realization: Realization) -> list[tuple[int, tuple[int, ...]]]:
    """(key, vertex ids) for the base facet first, then by leaf node id."""
    return [(BASE_FACET_KEY, realization.base_facet), *sorted(realization.facets.items())]


def _label(key: int) -> str:
    return "base" if key == BASE_FACET_KEY else str(key)


def _facet_side_witnesses(
    rows: list[tuple[int, ...]], cof: list[int], key: int, probes, centroid: tuple
) -> tuple[list[int] | None, list[str]]:
    """Supporting-hyperplane test for one facet, exact integer arithmetic.

    cof is the facet's plane from the plane table: g(p) = cof . (1, p) is
    the determinant of the facet's rows with (1, p) appended, zero on its
    hyperplane. The interior side is the side of the vertex centroid o:
    held as the row (n, s), s the vertex sum, n g(o) = cof . (n, s).

    Returns cof, negated if need be so that g(o) < 0 (None when o lies on
    the hyperplane), and a witness for every probe vertex not strictly on
    o's side.
    """
    at_o = sum(map(mul, cof, centroid))
    if at_o == 0:
        return None, [f"facet {_label(key)}: vertices balance across its hyperplane"]
    if at_o > 0:
        cof = [-c for c in cof]
    witnesses = [
        f"facet {_label(key)}: vertex {vid} not strictly inside"
        for vid in probes
        if sum(map(mul, cof, rows[vid])) >= 0
    ]
    return cof, witnesses


def _ray_witnesses(
    realization: Realization, planes: dict[int, list[int]], centroid: tuple
) -> list[str]:
    """Facets other than the base that the ray from the centroid o through
    the base facet's centroid c meets.

    Scaled by n d, the direction c - o is n (sum of base) - d s and a facet
    vertex q sits at n q - s relative to o, all integers. A facet whose
    hyperplane is ahead on the ray is met when the direction lies in the
    closed cone of its vertices seen from o: by Cramer's rule, replacing any
    one cone generator by the direction never gives a determinant of the
    opposite sign. A zero counts as a hit, so rays through ridges need no
    genericity fallback.
    """
    coords = realization.coords
    n, *total = centroid
    d = len(total)
    base = realization.base_facet
    direction = [n * sum(coords[v][i] for v in base) - d * total[i] for i in range(d)]
    witnesses = []
    for key, verts in realization.facets.items():
        # the plane's coefficients of p, past its constant term
        if sum(map(mul, planes[key][1:], direction)) <= 0:
            continue  # parallel to the hyperplane, or moving away from it
        gens = [[n * coords[v][i] - total[i] for i in range(d)] for v in verts]
        positive = _det_int(gens) > 0
        for j in range(d):
            det = _det_int([direction if i == j else g for i, g in enumerate(gens)])
            if det != 0 and (det > 0) != positive:
                break
        else:
            witnesses.append(
                f"facet {key}: the ray from the centroid through the base facet "
                f"crosses it"
            )
    return witnesses


def _surface_witnesses(realization: Realization, table: dict | str) -> list[str]:
    """Witnesses for the vertices on no facet, then for a broken ridge table."""
    used = set(realization.base_facet).union(*realization.facets.values())
    witnesses = [
        f"vertex {vid} lies on no facet"
        for vid in range(len(realization.coords))
        if vid not in used
    ]
    if isinstance(table, str):
        witnesses.append(f"facets form no closed surface: {table}")
    return witnesses


def verify_convexity_global(realization: Realization) -> tuple[bool, list[str]]:
    """Linear-size certificate that the facets bound a convex polytope.

    Checks, in O(F d^4) integer work on its own plane table: every ridge
    lies in exactly two facets; every vertex lies on a facet; the vertex
    centroid o is strictly off every facet hyperplane; at every ridge, each
    facet's extra vertex lies strictly on o's side of the other facet's
    hyperplane; and the ray from o through the base facet's centroid
    crosses no other facet.
    """
    witnesses, table, plane_table = _surface(realization)
    if not witnesses:
        witnesses = _global_route(realization, table, plane_table)
    return not witnesses, witnesses


def _global_route(
    realization: Realization, table: dict | str, plane_table: tuple | None
) -> list[str]:
    """The global route's witnesses on the _surface of input that passed
    its check, whose planes it orients."""
    witnesses = _surface_witnesses(realization, table)
    if isinstance(table, str):
        return witnesses
    rows, planes = plane_table
    # probes[key]: across each ridge of facet key, the other facet's extra
    # vertex (its vertex sum less the ridge's), once each, first seen first
    probes: dict[int, dict[int, None]] = {key: {} for key in planes}
    for ridge, (k1, k2) in table.items():
        on_ridge = sum(ridge)
        probes[k1][planes[k2][2] - on_ridge] = None
        probes[k2][planes[k1][2] - on_ridge] = None
    # the vertex centroid o as the row (n, vertex sum)
    centroid = (len(rows), *map(sum, zip(*realization.coords)))
    oriented = {}
    for key, _ in _facets_in_order(realization):
        oriented[key], wit = _facet_side_witnesses(
            rows, planes[key][0], key, probes[key], centroid
        )
        witnesses += wit
    return witnesses or _ray_witnesses(realization, oriented, centroid)


def verify_bounds(realization: Realization) -> tuple[bool, list[str]]:
    """Every coordinate inside the paper's caps 10 d^2 R_eff^2 (horizontal)
    and 6 R_eff^3 (height), with R_eff from the realization's metadata, a
    positive int (not a bool) or a witness."""
    d = realization.d
    R_eff = realization.metadata.get("R_eff")
    if type(R_eff) is not int or R_eff <= 0:
        return False, [f"metadata R_eff {R_eff!r} is not a positive integer"]
    bound_xy = 10 * d * d * R_eff * R_eff
    bound_z = 6 * R_eff**3
    witnesses = []
    for vid, p in enumerate(realization.coords):
        if not _is_integer_point(p, d):
            witnesses.append(f"vertex {vid} is not an integer point of length {d}")
            continue
        if min(p) < 0 or max(p[:-1]) > bound_xy or p[-1] > bound_z:
            witnesses.append(f"vertex {vid} coordinates {p} out of bounds")
    return not witnesses, witnesses


def verify_combinatorics(realization: Realization, tree: TreeRep) -> tuple[bool, list[str]]:
    """Facet structure matches the stacking replay of the tree; a tree
    that fails check_tree is InvalidInputError."""
    check_tree(tree)
    node_facets = facet_layout(tree)
    d, n, leaves = tree.dim, len(realization.coords), tree.leaf_ids
    witnesses = []
    if n != tree.n_vertices:
        witnesses.append(f"vertex count {n}, expected {tree.n_vertices}")
    if len(realization.facets) != len(leaves):  # counts include the base facet
        witnesses.append(f"facet count {len(realization.facets) + 1}, expected {len(leaves) + 1}")
    if realization.base_facet != tuple(range(d)):
        witnesses.append(f"base facet {realization.base_facet} is not the first {d} vertices")
    if realization.facets != {leaf: node_facets[leaf] for leaf in leaves}:
        witnesses.append("leaf facet table does not match the tree replay")
    return not witnesses, witnesses


def make_certificate(realization: Realization, tree: TreeRep | None = None) -> Certificate:
    """Run every route; the witnesses are listed once each, in the order
    the routes first give them (a malformed point fails several).

    One _surface serves both convexity routes; each route alone builds its
    own. A tree that fails check_tree raises InvalidInputError."""
    s_wit, table, plane_table = _surface(realization)
    g_wit, min_interior = s_wit, None
    if not s_wit:
        s_wit, min_interior = _stress_route(realization, table, plane_table)
        g_wit = _global_route(realization, table, plane_table)
    witnesses = s_wit + g_wit
    b_ok = c_ok = None
    if "R_eff" in realization.metadata:
        b_ok, b_wit = verify_bounds(realization)
        witnesses += b_wit
    if tree is not None:
        c_ok, c_wit = verify_combinatorics(realization, tree)
        witnesses += c_wit
    return Certificate(
        not s_wit, not g_wit, b_ok, c_ok, list(dict.fromkeys(witnesses)), min_interior
    )
