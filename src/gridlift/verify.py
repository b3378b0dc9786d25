"""Certify convexity of an integer realization from its coordinates alone.

Two independent routes, deliberately kept apart:

* stress route: recompute every ridge stress from the final coordinates
  (a flat stress plan of their horizontal part, lifted by their heights,
  never taken from the construction) and check interior ridges positive,
  base ridges negative, all heights nonnegative with the base flat at
  height zero;
* global route: the linear-size convex-polytope checker of Mehlhorn,
  Naeher, Seel, Seidel, Schilz, Schirra and Uhrig ("Checking geometric
  programs or verification of geometric structures", Comput. Geom. 12,
  1999). The facets must form a closed surface using every vertex, the
  vertex centroid must lie strictly inside every facet hyperplane, the
  surface must be strictly convex at every ridge, and the ray from the
  centroid through the base facet must cross no other facet.

`verify_convexity_exhaustive` is the textbook definition, every facet's
hyperplane against every vertex, in O(F n) work. It is the reference the
tests hold the global route to.

On the class this pipeline emits (base flat at height zero, everything
else strictly above, no degenerate shadows) the stress and global routes
agree; the certificate records both verdicts so disagreement is visible
instead of masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StageInvariantError
from .exact import (
    _det_int,
    _extra_vertex,
    flat_stress_plan,
    maximal_minors,
    plan_stresses,
)
from .flat import BASE_FACET_KEY, build_ridge_adjacency
from .rounding import Realization
from .trees import TreeRep, facet_layout


@dataclass
class Certificate:
    convex_by_stress: bool
    convex_global: bool
    bounds_ok: bool | None = None
    combinatorics_ok: bool | None = None
    witnesses: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        parts = [
            self.convex_by_stress,
            self.convex_global,
            self.bounds_ok,
            self.combinatorics_ok,
        ]
        return all(p for p in parts if p is not None)


def verify_convexity_stress(realization: Realization) -> tuple[bool, list[str]]:
    """Interior ridge stresses positive, base negative, base flat at 0."""
    witnesses: list[str] = []
    coords = realization.coords
    d = realization.d

    for vid, p in enumerate(coords):
        if p[-1] < 0:
            witnesses.append(f"vertex {vid} below height zero")
    base_set = set(realization.base_facet)
    for vid in realization.base_facet:
        if coords[vid][-1] != 0:
            witnesses.append(f"base vertex {vid} not at height zero")
    for vid in range(len(coords)):
        if vid not in base_set and coords[vid][-1] == 0:
            witnesses.append(f"non-base vertex {vid} at height zero")
    if witnesses:
        return False, witnesses

    try:
        adjacency = build_ridge_adjacency(d, realization.facets, realization.base_facet)
    except StageInvariantError as exc:
        return False, [f"ridge structure broken: {exc}"]

    plan = flat_stress_plan(
        d, [p[:-1] for p in coords], adjacency, realization.facet_vertices
    )
    stresses, failures = plan_stresses(plan, [p[-1] for p in coords])
    for ridge, (k1, k2) in adjacency.items():
        if ridge in failures:
            witnesses.append(f"ridge {ridge}: {failures[ridge]}")
            continue
        w = stresses[ridge]
        is_base = BASE_FACET_KEY in (k1, k2)
        if is_base and w >= 0:
            witnesses.append(f"base ridge {ridge} has stress {w} >= 0")
        elif not is_base and w <= 0:
            witnesses.append(f"interior ridge {ridge} has stress {w} <= 0")
    return not witnesses, witnesses


def _facets_in_order(realization: Realization) -> list[tuple[int, tuple[int, ...]]]:
    """(key, vertex ids) for the base facet first, then by leaf node id."""
    return [(BASE_FACET_KEY, realization.base_facet)] + sorted(
        realization.facets.items()
    )


def _label(key: int) -> str:
    return "base" if key == BASE_FACET_KEY else str(key)


def _centroid(coords: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """The vertex centroid held homogeneous, as (sum of all vertices, n)."""
    d = len(coords[0])
    return [sum(p[i] for p in coords) for i in range(d)], len(coords)


def _unused_vertex_witnesses(realization: Realization) -> list[str]:
    used = set(realization.base_facet)
    for verts in realization.facets.values():
        used.update(verts)
    return [
        f"vertex {vid} lies on no facet"
        for vid in range(len(realization.coords))
        if vid not in used
    ]


def _facet_side_witnesses(
    coords: list[tuple[int, ...]],
    facet: tuple[int, ...],
    key: int,
    probes,
    centroid: tuple[list[int], int],
) -> tuple[list[int] | None, list[str]]:
    """Supporting-hyperplane test for one facet, exact integer arithmetic.

    The affine form g(p) = det(facet columns + p, ones row) vanishes on the
    facet; cofactor expansion along the p column turns each vertex test into
    a dot product. The interior side is the side of the vertex centroid o:
    writing g(p) = a . p + c and holding o as (sum s, count n), the integer
    n g(o) = a . s + n c equals the sum of g over all vertices.

    Returns the coefficients of g, negated if need be so that g(o) < 0
    (None when o lies on the hyperplane), and a witness for every probe
    vertex not strictly on o's side.
    """
    d = len(coords[0])
    # the cofactors of the bracket's p column are the maximal minors of the
    # facet rows; with the ones entry first, the leading block is the
    # facet's shadow, nonsingular unless the facet is vertical
    minors = maximal_minors([[1, *coords[v]] for v in facet])
    cof = [m if i % 2 else -m for i, m in enumerate(minors[1:])]
    cof.append(minors[0])

    total, n = centroid
    at_o = sum(cof[i] * total[i] for i in range(d)) + n * cof[d]
    if at_o == 0:
        return None, [f"facet {_label(key)}: vertices balance across its hyperplane"]
    if at_o > 0:
        cof = [-c for c in cof]
    witnesses = []
    for vid in probes:
        p = coords[vid]
        if sum(cof[i] * p[i] for i in range(d)) + cof[d] >= 0:
            witnesses.append(f"facet {_label(key)}: vertex {vid} not strictly inside")
    return cof, witnesses


def _ray_witnesses(
    realization: Realization,
    planes: dict[int, list[int]],
    centroid: tuple[list[int], int],
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
    total, n = centroid
    d = len(total)
    base = realization.base_facet
    direction = [n * sum(coords[v][i] for v in base) - d * total[i] for i in range(d)]
    witnesses = []
    for key, verts in realization.facets.items():
        cof = planes[key]
        if sum(cof[i] * direction[i] for i in range(d)) <= 0:
            continue  # parallel to the hyperplane, or moving away from it
        gens = [[n * coords[v][i] - total[i] for i in range(d)] for v in verts]
        # _det_int works in place, so every call gets fresh rows
        positive = _det_int([g[:] for g in gens]) > 0
        for j in range(d):
            det = _det_int([direction[:] if i == j else g[:] for i, g in enumerate(gens)])
            if det != 0 and (det > 0) != positive:
                break
        else:
            witnesses.append(
                f"facet {key}: the ray from the centroid through the base facet "
                f"crosses it"
            )
    return witnesses


def _closed_surface_witnesses(realization: Realization) -> tuple[dict, list[str]]:
    """Ridge -> its two facets, and a witness if the facets do not form a
    closed surface (some ridge not in exactly two facets)."""
    try:
        return build_ridge_adjacency(
            realization.d, realization.facets, realization.base_facet
        ), []
    except StageInvariantError as exc:
        return {}, [f"facets form no closed surface: {exc}"]


def verify_convexity_global(realization: Realization) -> tuple[bool, list[str]]:
    """Linear-size certificate that the facets bound a convex polytope.

    Checks, in O(F d^4) integer work: every ridge lies in exactly two
    facets; every vertex lies on a facet; the vertex centroid o is strictly
    off every facet hyperplane; at every ridge, each facet's extra vertex
    lies strictly on o's side of the other facet's hyperplane; and the ray
    from o through the base facet's centroid crosses no other facet.
    """
    adjacency, broken = _closed_surface_witnesses(realization)
    witnesses = _unused_vertex_witnesses(realization) + broken
    if broken:
        return False, witnesses

    # probes[key]: across each ridge of facet key, the other facet's extra vertex
    probes: dict[int, list[int]] = {key: [] for key in realization.facets}
    probes[BASE_FACET_KEY] = []
    for ridge, (k1, k2) in adjacency.items():
        probes[k1].append(_extra_vertex(realization.facet_vertices(k2), ridge))
        probes[k2].append(_extra_vertex(realization.facet_vertices(k1), ridge))

    coords = realization.coords
    centroid = _centroid(coords)
    planes = {}
    for key, verts in _facets_in_order(realization):
        planes[key], wit = _facet_side_witnesses(
            coords, verts, key, probes[key], centroid
        )
        witnesses += wit
    if not witnesses:
        witnesses = _ray_witnesses(realization, planes, centroid)
    return not witnesses, witnesses


def verify_convexity_exhaustive(realization: Realization) -> tuple[bool, list[str]]:
    """Every facet's hyperplane strictly supports all other vertices.

    The reference for verify_convexity_global, in O(F n) work. It also
    requires a closed surface and every vertex on a facet: without them a
    convex point set with a partial or padded facet list would pass.
    """
    witnesses = _unused_vertex_witnesses(realization)
    witnesses += _closed_surface_witnesses(realization)[1]
    coords = realization.coords
    centroid = _centroid(coords)
    for key, verts in _facets_in_order(realization):
        incident = set(verts)
        probes = [vid for vid in range(len(coords)) if vid not in incident]
        witnesses += _facet_side_witnesses(coords, verts, key, probes, centroid)[1]
    return not witnesses, witnesses


def verify_bounds(
    realization: Realization, R_eff: int | None = None, d: int | None = None
) -> tuple[bool, list[str]]:
    d = realization.d if d is None else d
    if R_eff is None:
        R_eff = realization.metadata["R_eff"]
    bound_xy = 10 * d * d * R_eff * R_eff
    bound_z = 6 * R_eff**3
    witnesses = []
    for vid, p in enumerate(realization.coords):
        if len(p) != d or not all(isinstance(c, int) for c in p):
            witnesses.append(f"vertex {vid} is not an integer point of length {d}")
            continue
        if min(p) < 0 or max(p[:-1]) > bound_xy or p[-1] > bound_z:
            witnesses.append(f"vertex {vid} coordinates {p} out of bounds")
    return not witnesses, witnesses


def verify_combinatorics(
    realization: Realization, tree: TreeRep
) -> tuple[bool, list[str]]:
    """Facet structure matches the stacking replay of the tree."""
    node_facets, _ = facet_layout(tree)
    expected_leaves = {
        node: verts for node, verts in node_facets.items() if tree.is_leaf(node)
    }
    witnesses = []
    d = tree.dim
    if len(realization.coords) != tree.n_vertices:
        witnesses.append(
            f"vertex count {len(realization.coords)}, expected {tree.n_vertices}"
        )
    k = tree.interior_count
    want = k * (d - 1) + 2
    have = len(realization.facets) + 1
    if have != want:
        witnesses.append(f"facet count {have}, expected {want}")
    if realization.base_facet != tuple(range(d)):
        witnesses.append(f"base facet {realization.base_facet} is not the first {d} vertices")
    if realization.facets != expected_leaves:
        witnesses.append("leaf facet table does not match the tree replay")
    return not witnesses, witnesses


def make_certificate(
    realization: Realization,
    tree: TreeRep | None = None,
    check_bounds: bool = True,
) -> Certificate:
    s_ok, s_wit = verify_convexity_stress(realization)
    g_ok, g_wit = verify_convexity_global(realization)
    witnesses = s_wit + g_wit
    b_ok = c_ok = None
    if check_bounds and "R_eff" in realization.metadata:
        b_ok, b_wit = verify_bounds(realization)
        witnesses += b_wit
    if tree is not None:
        c_ok, c_wit = verify_combinatorics(realization, tree)
        witnesses += c_wit
    return Certificate(s_ok, g_ok, b_ok, c_ok, witnesses)
