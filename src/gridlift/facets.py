"""The facet table: how a stacked polytope's facets are keyed and stored.

A facet table maps each facet key to the facet's ordered vertex ids: the
base facet first, under BASE_FACET_KEY, then the leaves by node id of the
stacking tree's child table (TreeRep). A tree is checked once, where it
enters (check_tree; check_dim is its dimension half), and facet_layout
replays it into every node's facet, for the verifier and the graph
writer; the construction numbers its facets in a walk of its own. So the
certificate's trusted code needs nothing from the construction to know
which facets meet at a ridge or which facets a tree stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError, InvalidInputError

BASE_FACET_KEY = -1  # facet-table key for the base facet

Ridge = tuple[int, ...]  # sorted vertex ids, length d-1
FacetKey = int  # leaf node id, or BASE_FACET_KEY


@dataclass
class TreeRep:
    """Ordered d-ary stacking tree: children[v] holds node v's child ids, ()
    for a leaf. Node 0 is the root and every child's id is above its
    parent's, which is all check_tree asks and all the replays need: the
    trees built here are in preorder, but check_tree accepts any such order."""

    dim: int
    children: list[tuple[int, ...]]

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    @property
    def interior_ids(self) -> list[int]:
        # ascending ids visit every parent before its children
        return [v for v, ch in enumerate(self.children) if ch]

    @property
    def leaf_ids(self) -> list[int]:
        return [v for v, ch in enumerate(self.children) if not ch]

    @property
    def interior_count(self) -> int:
        return sum(1 for ch in self.children if ch)

    @property
    def leaf_count(self) -> int:
        return len(self.children) - self.interior_count

    @property
    def n_vertices(self) -> int:
        return self.dim + self.interior_count


def check_dim(d: object) -> None:
    """InvalidInputError unless d is an int (not a bool) of at least 3."""
    if type(d) is not int or d < 3:
        raise InvalidInputError(f"dimension must be an integer >= 3, got {d!r}")


def check_tree(tree: TreeRep) -> None:
    """InvalidInputError unless tree is a TreeRep, check_dim passes, the
    root and every other interior node have dim children, and the child ids
    are 1..n-1, once each, each above its parent's."""
    if not isinstance(tree, TreeRep):
        raise InvalidInputError(f"a tree must be a TreeRep, got {type(tree).__name__}")
    d, children = tree.dim, tree.children
    check_dim(d)
    if not isinstance(children, list) or not children:
        raise InvalidInputError("a tree needs a non-empty list of children")
    if not children[0]:
        raise InvalidInputError("root must be an interior node, got a leaf")
    n = len(children)
    seen = bytearray(n)
    for v, ch in enumerate(children):
        if type(ch) is not tuple or ch and len(ch) != d:
            raise InvalidInputError(f"node {v} has children {ch!r}, not () or {d} ids")
        for c in ch:
            if type(c) is not int or not v < c < n or seen[c]:
                raise InvalidInputError(f"node {v} names child {c!r}, not a new id above {v}")
            seen[c] = 1
    if seen.count(0) > 1:
        raise InvalidInputError(f"node {seen.index(0, 1)} is no node's child")


def facet_layout(tree: TreeRep) -> dict[int, tuple[int, ...]]:
    """Ordered facet of every node, the stacking replay of a tree.

    The root facet is (0, ..., d-1); child j's facet is its parent's with
    position j replaced by the parent's stacked vertex, d + i for the i-th
    interior node by id, so node v's stacked vertex is layout[children[v][0]][0].
    """
    d = tree.dim
    layout: dict[int, tuple[int, ...]] = {0: tuple(range(d))}
    for p, v in enumerate(tree.interior_ids, start=d):
        facet = layout[v]
        for j, c in enumerate(tree.children[v]):
            layout[c] = facet[:j] + (p,) + facet[j + 1 :]
    return layout


@dataclass
class Realization:
    """Integer-coordinate realization of the stacked polytope."""

    d: int
    coords: list[tuple[int, ...]]  # by vertex id, length-d integer points
    facets: dict[int, tuple[int, ...]]  # leaf node id -> vertex ids
    base_facet: tuple[int, ...]
    metadata: dict


def build_ridge_adjacency(
    d: int, facets: dict[FacetKey, tuple[int, ...]]
) -> dict[Ridge, tuple[FacetKey, int, FacetKey, int]]:
    """Each ridge and its record (k1, p, k2, q): its two facets' keys, in
    facet-table order, and where each one's extra vertex sits in its sorted
    ids, so that a facet's ridge j is its sorted ids less position j.

    Raises GeometryError when a facet is not d distinct vertices, or when
    some ridge does not lie in exactly two facets, that is, when the facets
    form no closed surface.
    """
    incidence: dict[Ridge, list[int]] = {}
    for key, facet in facets.items():
        if len(facet) != d or len(set(facet)) != d:
            label = "base" if key == BASE_FACET_KEY else key
            raise GeometryError(f"facet {label} is {tuple(facet)}, not {d} distinct vertices")
        ids = tuple(sorted(facet))
        # the ridges opposite facet[0], facet[1], ...: the order of the witnesses
        for j in map(ids.index, facet):
            incidence.setdefault(ids[:j] + ids[j + 1 :], []).extend((key, j))
    out: dict[Ridge, tuple[FacetKey, int, FacetKey, int]] = {}
    for ridge, record in incidence.items():
        if len(record) != 4:
            raise GeometryError(f"ridge {ridge} lies in {len(record) // 2} facets")
        out[ridge] = tuple(record)
    return out
