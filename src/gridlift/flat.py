"""Flat embedding: weighted barycentric subdivision of a scaled base simplex.

The balanced root weight R picks a grid scale L (smallest integer with
L^{d-1} >= R); all face weights are rescaled by lam = L^{d-1}/R >= 1 so the
base simplex with vertices 0, L*e_i has bracket exactly R_eff = L^{d-1}.
Each stacking then places its new vertex at the weighted barycenter of the
current facet, with the weight of child i multiplying the vertex that child
i's facet drops. By multilinearity every facet's bracket equals lam times
its face weight, exactly and with the root's (positive) sign, so
node_brackets holds the positive lam * weight of every node. The leaf
facets and the ridge table are kept in the facet-table format of the facets
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GeometryError, InvalidInputError, StageInvariantError
from .exact import Point
from .facets import FacetKey, FacetTable, Ridge, build_ridge_adjacency
from .trees import WeightedTree, facet_layout


@dataclass
class FlatComplex(FacetTable):
    """Flat embedded stacking complex over Q^{d-1}."""

    d: int
    coords: list[Point]  # by vertex id; ints in grid units once perturbed
    facets: dict[int, tuple[int, ...]]  # leaf node id -> ordered vertex ids
    base_facet: tuple[int, ...]
    ridge_adjacency: dict[Ridge, tuple[FacetKey, FacetKey]]
    node_facets: dict[int, tuple[int, ...]]  # every node, incl. historical
    node_brackets: dict[int, Fraction]  # lam * weight of each node facet; ints once perturbed
    stacked_vertex: dict[int, int]  # interior node id -> vertex id
    interior_order: tuple[int, ...]  # preorder interior node ids
    L: int
    lam: Fraction
    R_eff: int


def _ceil_root(value: int, k: int) -> int:
    """Smallest integer L with L**k >= value."""
    if value <= 1:
        return 1
    guess = max(1, int(round(value ** (1.0 / k))) - 2)
    while guess**k < value:
        guess += 1
    return guess


def base_simplex(d: int, R: int) -> tuple[list[Point], int, Fraction]:
    """Base simplex vertices, grid scale L, and the weight rescale lam.

    Vertex 0 sits at the origin and vertex i on an axis at distance L, with
    one axis swap for even d so the bracket of (v_0, ..., v_{d-1}) comes out
    as +L^{d-1}.
    """
    if d < 3:
        raise InvalidInputError(f"dimension must be at least 3, got {d}")
    if R < 3:
        raise InvalidInputError(f"root weight must be at least 3, got {R}")
    L = _ceil_root(R, d - 1)
    lam = Fraction(L ** (d - 1), R)
    axes = list(range(d - 1))
    if d % 2 == 0:
        axes[0], axes[1] = axes[1], axes[0]
    zero = Fraction(0)
    coords: list[Point] = [tuple([zero] * (d - 1))]
    for i in range(d - 1):
        v = [zero] * (d - 1)
        v[axes[i]] = Fraction(L)
        coords.append(tuple(v))
    return coords, L, lam


def place_stacked_vertex(
    facet_coords: Sequence[Point], child_weights: Sequence[Fraction], W: Fraction
) -> Point:
    """Barycentric placement: child i's weight multiplies facet vertex i."""
    if len(facet_coords) != len(child_weights):
        raise InvalidInputError("one weight per facet vertex required")
    if any(a <= 0 for a in child_weights):
        raise InvalidInputError("child weights must be positive")
    if sum(child_weights) != W:
        raise InvalidInputError("child weights must sum to the facet weight")
    dim = len(facet_coords[0])
    out = []
    for axis in range(dim):
        out.append(sum((a * u[axis] for a, u in zip(child_weights, facet_coords)), Fraction(0)) / W)
    return tuple(out)


def build_flat(wt: WeightedTree) -> FlatComplex:
    """Embed the whole weighted tree; exact, deterministic."""
    tree = wt.tree
    d = tree.dim
    R = wt.root_weight
    base_coords, L, lam = base_simplex(d, R)
    coords: list[Point] = list(base_coords)
    layout, stacked = facet_layout(tree)
    node_brackets: dict[int, Fraction] = {tree.root: Fraction(L ** (d - 1))}
    for v in tree.interior_ids:
        facet = layout[v]
        W = lam * wt.weight[v]
        children = tree.nodes[v].children
        cw = [lam * wt.weight[c] for c in children]
        p = place_stacked_vertex([coords[u] for u in facet], cw, W)
        if stacked[v] != len(coords):
            raise StageInvariantError(
                "flat", f"node {v} stacks vertex {stacked[v]}, expected {len(coords)}", v
            )
        coords.append(p)
        node_brackets.update(zip(children, cw))
    facets = {leaf: layout[leaf] for leaf in tree.leaf_ids}
    base_facet = tuple(range(d))
    try:
        ridges = build_ridge_adjacency(d, facets, base_facet)
    except GeometryError as exc:
        raise StageInvariantError("flat", str(exc)) from exc
    return FlatComplex(
        d=d,
        coords=coords,
        facets=facets,
        base_facet=base_facet,
        ridge_adjacency=ridges,
        node_facets=layout,
        node_brackets=node_brackets,
        stacked_vertex=stacked,
        interior_order=tuple(tree.interior_ids),
        L=L,
        lam=lam,
        R_eff=L ** (d - 1),
    )

