"""Flat embedding: weighted barycentric subdivision of a scaled base simplex.

The balanced root weight R picks a grid scale L (smallest integer with
L^{d-1} >= R), and the base simplex with vertices 0, L*e_i has bracket
exactly R_eff = L^{d-1}. Each stacking then places its new vertex at the
weighted barycenter of the current facet, with the weight of child i
multiplying the vertex that child i's facet drops. By multilinearity every
facet's bracket equals lam * weight, lam = L^{d-1}/R, exactly and with the
root's (positive) sign.

Everything is held in integers. A vertex is its homogeneous column
(D, N_1, ..., N_{d-1}), the point N / D with D > 0, reduced by one gcd per
vertex: the format of the lifted rows (D, X..., Z) that the lift and
exact.facet_planes take, one coordinate short. The barycenter needs no lam,
which cancels in sum(lam w_c u_c) / (lam w_v): it is sum(w_c N_c (D' / D_c))
over D' w_v, D' the lcm of the facet's denominators. node_brackets holds
the positive integers L^{d-1} * weight under the common bracket scale R, so
node v's real bracket is node_brackets[v] / bracket_scale; the perturbed
complex of the rounding stage has integer grid points (D = 1) and scale 1.
The complex carries the stacking tree it embeds, which the lift and round
stages replay; d, R_eff = L^{d-1} and the facet table are properties, so
nothing can disagree with the tree and L. It caches the three tables
every stage reads, rather than replaying the tree each time: node_facets
(every node's ordered facet), node_ridges (each node facet's ridges, by
position) and ridge_adjacency (each ridge's facet record). build_flat's one
walk over the stackings numbers the vertices, the node facets and the
ridges, in the order ridge_adjacency keeps, and checks that every ridge
lies in two facets, so a tree whose facets form no closed surface is a
flat stage error; the stress replay indexes its ridges by these numbers
and builds no ridge key. The certificate replays the tree on its own
(facets.facet_layout) and builds its own ridge table from the output
(facets.build_ridge_adjacency), so it shares no numbering with this walk.
Nothing here checks its arguments: the tree was checked where it entered
(facets.check_tree) and the weights by trees.check_balanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import StageInvariantError
from .facets import BASE_FACET_KEY, FacetKey, Ridge, TreeRep
from .trees import WeightedTree

# A vertex as (D, N_1, ..., N_{d-1}): the point N / D, D > 0, in lowest terms.
Column = tuple[int, ...]


@dataclass
class FlatComplex:
    """Flat embedded stacking complex over Q^{d-1}, in integers."""

    coords: list[Column]  # homogeneous column by vertex id; D = 1 once perturbed
    # each ridge's record (k1, p, k2, q), as facets.build_ridge_adjacency gives it
    ridge_adjacency: dict[Ridge, tuple[FacetKey, int, FacetKey, int]]
    node_facets: dict[int, tuple[int, ...]]  # every node's facet, incl. historical
    node_ridges: list[tuple[int, ...]]  # by node id: its facet's ridge numbers, by position
    node_brackets: dict[int, int]  # bracket of each node facet times bracket_scale
    bracket_scale: int  # R on the exact complex, 1 once perturbed
    tree: TreeRep  # the stacking tree this complex embeds
    L: int  # grid scale: the base vertices sit on the axes at distance L

    @property
    def d(self) -> int:
        return self.tree.dim

    @property
    def R_eff(self) -> int:  # the base simplex's bracket
        return self.L ** (self.d - 1)

    @property
    def facet_table(self) -> dict[FacetKey, tuple[int, ...]]:
        """The base, node 0's facet, under BASE_FACET_KEY, then the leaves'."""
        table = {BASE_FACET_KEY: self.node_facets[0]}
        table.update((leaf, self.node_facets[leaf]) for leaf in self.tree.leaf_ids)
        return table


def _ceil_root(value: int, k: int) -> int:
    """Smallest integer L with L**k >= value."""
    if value <= 1:
        return 1
    guess = max(1, int(round(value ** (1.0 / k))) - 2)
    while guess**k < value:
        guess += 1
    return guess


def base_simplex(d: int, R: int) -> tuple[list[Column], int]:
    """Base simplex vertices as homogeneous columns, and the grid scale L.

    Vertex 0 sits at the origin and vertex i on an axis at distance L, with
    one axis swap for even d so the bracket of (v_0, ..., v_{d-1}) comes out
    as +L^{d-1}. A checked tree's root weight R is at least d >= 3.
    """
    L = _ceil_root(R, d - 1)
    axes = list(range(d - 1))
    if d % 2 == 0:
        axes[0], axes[1] = axes[1], axes[0]
    coords: list[Column] = [(1,) + (0,) * (d - 1)]
    for i in range(d - 1):
        v = [1] + [0] * (d - 1)
        v[1 + axes[i]] = L
        coords.append(tuple(v))
    return coords, L


def stacked_column(
    facet_coords: Sequence[Column], child_weights: Sequence[int], weight: int
) -> Column:
    """Barycentric placement: child i's weight multiplies facet vertex i.

    The point sum(w_i u_i) / weight of homogeneous columns (D, N...) of any
    length, summed over the lcm of the facet's D and reduced by one gcd.
    The caller passes one positive weight per facet vertex, summing to
    weight: the child weights in the flat stage (check_tree fixes the
    arity, check_balanced the rest), and in the lift the child brackets of
    a stacking, which Cramer's rule makes sum to its node bracket.
    """
    den = lcm(*[u[0] for u in facet_coords])
    out = [den * weight] + [0] * (len(facet_coords[0]) - 1)
    for a, u in zip(child_weights, facet_coords):
        a *= den // u[0]
        for axis in range(1, len(out)):
            out[axis] += a * u[axis]
    g = gcd(*out)
    return tuple([x // g for x in out])


def build_flat(wt: WeightedTree) -> FlatComplex:
    """Embed the whole weighted tree; exact, deterministic.

    One walk over the stackings, in ascending node id, numbers everything
    in creation order. The root's facet is (0, ..., d-1); node v stacks
    vertex p = len(coords), placed at once, and child j's facet is node v's
    with p at position j. The ridges are the base's d, then each stacking's
    C(d, 2) new ones, pairs (i, j) with i < j in lexicographic order.
    node_ridges[v][k] is the number of the ridge of node v's facet opposite
    its vertex k: child j keeps its parent's ridge j, and the new ridge
    between children i and j is ridge i of child j and ridge j of child i.
    The ridge table follows that numbering, each ridge with its record:
    base ridge j drops base vertex j, at position j, and a leaf's ridge k
    drops its vertex k, at its position in the sorted facet.

    No ridge is numbered twice, so the table has one key per number: the
    d base keys are distinct subsets of range(d); every key made at
    stacking p ends in p, the largest vertex id so far, so no earlier key
    equals it; and the C(d, 2) keys of one stacking each drop a different
    pair from a facet of d distinct vertices.
    """
    tree = wt.tree
    d = tree.dim
    R = wt.root_weight
    coords, L = base_simplex(d, R)
    R_eff = L ** (d - 1)
    weight = wt.weight
    base = tuple(range(d))
    node_facets = {0: base}
    node_brackets = {0: R_eff * weight[0]}
    keys = [base[:j] + base[j + 1 :] for j in range(d)]
    node_ridges: list[tuple[int, ...]] = [()] * len(tree.children)
    node_ridges[0] = tuple(range(d))
    pairs = list(combinations(range(d), 2))
    for v in tree.interior_ids:
        children = tree.children[v]
        facet = node_facets[v]
        p = len(coords)
        cw = [weight[c] for c in children]
        coords.append(stacked_column([coords[u] for u in facet], cw, weight[v]))
        node_brackets.update((c, R_eff * w) for c, w in zip(children, cw))
        ridges = [list(node_ridges[v]) for _ in range(d)]
        for i, j in pairs:
            ridges[i][j] = ridges[j][i] = len(keys)
            keys.append((*sorted(facet[:i] + facet[i + 1 : j] + facet[j + 1 :]), p))
        for j, c in enumerate(children):
            node_facets[c] = facet[:j] + (p,) + facet[j + 1 :]
            node_ridges[c] = tuple(ridges[j])
    # the facets of each ridge, in facet-table order: the base's, then leaves by id
    incidence = [[BASE_FACET_KEY, j] for j in range(d)] + [[] for _ in range(len(keys) - d)]
    for leaf in tree.leaf_ids:
        facet = node_facets[leaf]
        for r, position in zip(node_ridges[leaf], map(sorted(facet).index, facet)):
            incidence[r] += leaf, position
    adjacency = dict(zip(keys, map(tuple, incidence)))
    for ridge, record in adjacency.items():
        if len(record) != 4:
            raise StageInvariantError(
                "flat", f"ridge {ridge} lies in {len(record) // 2} facets", ridge
            )
    return FlatComplex(coords, adjacency, node_facets, node_ridges, node_brackets, R, tree, L)
