"""Ordered d-ary stacking trees, their weights, and polytope graphs.

A stacked d-polytope built over a fixed base facet is encoded as an ordered
d-ary tree: the root stands for the starting copy of the base facet, every
interior node for a facet that was stacked on at some point, and every leaf
for a facet of the final polytope (the base facet itself stays outside the
tree). Child i of a node replaces the i-th vertex of the node's ordered
facet with the node's stacked vertex.

Node ids are assigned in preorder (root = 0), so the preorder sequence of
interior nodes is simply their ascending id order. A polytope on n vertices
has n - d interior nodes and (n - d)(d - 1) + 1 leaves.

The module also hosts the face-weight balancing step: weights are integers
throughout, every interior weight is the sum of its children, light siblings
share one weight, and the heavy child is never lighter. The root weight of
the balanced tree is what the embedding stage turns into a grid resolution.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidInputError, StageInvariantError
from .rng import SplitMix64

Nested = None | list  # leaf | list of d children


@dataclass(frozen=True)
class TreeNode:
    children: tuple[int, ...]  # empty for leaves
    parent: int | None


@dataclass
class TreeRep:
    """Ordered d-ary stacking tree with preorder node ids."""

    dim: int
    nodes: list[TreeNode]

    root: int = 0

    def is_leaf(self, v: int) -> bool:
        return not self.nodes[v].children

    def children(self, v: int) -> tuple[int, ...]:
        return self.nodes[v].children

    @property
    def interior_ids(self) -> list[int]:
        # preorder ids make ascending order the preorder of any subset
        return [v for v, nd in enumerate(self.nodes) if nd.children]

    @property
    def leaf_ids(self) -> list[int]:
        return [v for v, nd in enumerate(self.nodes) if not nd.children]

    @property
    def interior_count(self) -> int:
        return sum(1 for nd in self.nodes if nd.children)

    @property
    def leaf_count(self) -> int:
        return len(self.nodes) - self.interior_count

    @property
    def n_vertices(self) -> int:
        return self.dim + self.interior_count

    def to_nested(self) -> Nested:
        out: list[Nested] = [None] * len(self.nodes)
        for v in range(len(self.nodes) - 1, -1, -1):
            ch = self.nodes[v].children
            out[v] = [out[c] for c in ch] if ch else None
        return out[self.root]

    def to_json(self) -> str:
        return dump_json({"dim": self.dim, "tree": self.to_nested()})


def _nesting_limit() -> str:
    return (
        "the JSON nesting limit (the interpreter recursion limit, "
        f"{sys.getrecursionlimit()})"
    )


def load_json(text: str | bytes) -> object:
    """json.loads; malformed or too deeply nested text is invalid input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise InvalidInputError(
            f"invalid JSON: nested deeper than {_nesting_limit()}"
        ) from None


def dump_json(obj: object) -> str:
    """json.dumps; a document nested too deeply to write is invalid input
    (a nested tree nests one level per stacking on a path)."""
    try:
        return json.dumps(obj)
    except RecursionError:
        raise InvalidInputError(
            f"cannot write JSON nested deeper than {_nesting_limit()}"
        ) from None


def tree_from_nested(dim: int, nested: Nested) -> TreeRep:
    """Build a TreeRep from the nested-list form, assigning preorder ids."""
    if dim < 3:
        raise InvalidInputError(f"dimension must be at least 3, got {dim}")
    if nested is None:
        raise InvalidInputError("root must be an interior node, got a leaf")
    nodes: list[TreeNode] = []
    # iterative preorder; recursion would hit the interpreter limit on chains
    stack: list[tuple[Nested, int | None]] = [(nested, None)]
    while stack:
        item, parent = stack.pop()
        vid = len(nodes)
        if parent is not None:
            pn = nodes[parent]
            nodes[parent] = TreeNode(pn.children + (vid,), pn.parent)
        if item is None:
            nodes.append(TreeNode((), parent))
            continue
        if not isinstance(item, list) or len(item) != dim:
            raise InvalidInputError(
                f"interior node must be a list of exactly {dim} children"
            )
        nodes.append(TreeNode((), parent))
        for child in reversed(item):
            stack.append((child, vid))
    # reversed stack insertion above appends children right-to-left; ids are
    # preorder but the children tuples were built in visitation order, which
    # is left-to-right because we reversed before pushing. Verify arity.
    for v, nd in enumerate(nodes):
        if nd.children and len(nd.children) != dim:
            raise InvalidInputError("interior node with wrong arity")
    return TreeRep(dim, nodes)


def parse_tree(text: str | bytes) -> TreeRep:
    """Parse the JSON tree form {"dim": d, "tree": nested}."""
    obj = load_json(text)
    if not isinstance(obj, dict) or "dim" not in obj or "tree" not in obj:
        raise InvalidInputError('tree JSON must be {"dim": d, "tree": ...}')
    dim = obj["dim"]
    if not isinstance(dim, int):
        raise InvalidInputError("dim must be an integer")
    return tree_from_nested(dim, obj["tree"])


def subtree_sizes(tree: TreeRep) -> list[int]:
    """Node count of every subtree, computed bottom-up."""
    sizes = [1] * len(tree.nodes)
    for v in range(len(tree.nodes) - 1, -1, -1):
        for c in tree.nodes[v].children:
            sizes[v] += sizes[c]
    return sizes


# ---------------------------------------------------------------------------
# heavy path decomposition


@dataclass
class Caterpillar:
    """A maximal heavy path plus the light edges hanging off it."""

    path: tuple[int, ...]  # node ids, top to bottom; bottom is a leaf
    light_children: tuple[tuple[int, int], ...]  # (path node, light child id)
    parent: int | None  # caterpillar index


@dataclass
class CaterpillarHierarchy:
    caterpillars: list[Caterpillar]
    root_index: int
    height: int
    index_of_top: dict[int, int]


def heavy_paths(tree: TreeRep) -> tuple[dict[int, int], CaterpillarHierarchy]:
    """Heavy-child table (interior node -> child index) and the hierarchy.

    The heavy child maximizes subtree node count, ties going to the lowest
    child index. Following heavy children from any top node reaches a leaf;
    those maximal paths plus their incident light edges partition the edge
    set into caterpillars.
    """
    sizes = subtree_sizes(tree)
    heavy: dict[int, int] = {}
    for v in tree.interior_ids:
        ch = tree.nodes[v].children
        best = 0
        for i in range(1, len(ch)):
            if sizes[ch[i]] > sizes[ch[best]]:
                best = i
        heavy[v] = best

    tops = [tree.root]
    for v in tree.interior_ids:
        ch = tree.nodes[v].children
        for i, c in enumerate(ch):
            if i != heavy[v] and not tree.is_leaf(c):
                tops.append(c)
    tops.sort()

    cats: list[Caterpillar] = []
    index_of_top: dict[int, int] = {}
    for top in tops:
        path = [top]
        light: list[tuple[int, int]] = []
        v = top
        while not tree.is_leaf(v):
            ch = tree.nodes[v].children
            for i, c in enumerate(ch):
                if i != heavy[v]:
                    light.append((v, c))
            v = ch[heavy[v]]
            path.append(v)
        index_of_top[top] = len(cats)
        cats.append(Caterpillar(tuple(path), tuple(light), None))

    member_of: dict[int, int] = {}
    for idx, cat in enumerate(cats):
        for v in cat.path:
            member_of[v] = idx
    for idx, cat in enumerate(cats):
        top = cat.path[0]
        parent_node = tree.nodes[top].parent
        cat.parent = None if parent_node is None else member_of[parent_node]

    depth = [1] * len(cats)
    height = 1 if cats else 0
    order = sorted(range(len(cats)), key=lambda i: cats[i].path[0])
    for i in order:
        p = cats[i].parent
        if p is not None:
            depth[i] = depth[p] + 1
            height = max(height, depth[i])
    return heavy, CaterpillarHierarchy(cats, member_of[tree.root], height, index_of_top)


# ---------------------------------------------------------------------------
# balancing


@dataclass
class WeightedTree:
    tree: TreeRep
    weight: list[int]  # by node id
    heavy_child: dict[int, int]  # interior node id -> child index

    @property
    def root_weight(self) -> int:
        return self.weight[self.tree.root]


def balance_weights(tree: TreeRep) -> WeightedTree:
    """Assign balanced integer face weights.

    Processing caterpillars bottom-up: all leaves start at weight 1; within
    a caterpillar the path-node weights are summed up from their children,
    every light child is raised to match its heaviest light sibling (the
    raise is propagated down that child's own heavy path and up the current
    path so sums stay exact), and finally, when the path holds more than one
    interior node, the largest light-subtree weight is added to every node
    on the path so the heavy child can never fall behind its light siblings.
    A single-interior path is a star of fresh leaves and is already balanced
    without that final padding.
    """
    heavy, hier = heavy_paths(tree)
    weight = [0] * len(tree.nodes)
    for v in tree.leaf_ids:
        weight[v] = 1

    def add_down_heavy(u: int, delta: int) -> None:
        while not tree.is_leaf(u):
            weight[u] += delta
            u = tree.nodes[u].children[heavy[u]]
        weight[u] += delta

    # children-before-parents order over the hierarchy
    order = sorted(
        range(len(hier.caterpillars)),
        key=lambda i: hier.caterpillars[i].path[0],
        reverse=True,
    )
    for idx in order:
        cat = hier.caterpillars[idx]
        interiors = [v for v in cat.path if not tree.is_leaf(v)]
        for v in reversed(interiors):
            weight[v] = sum(weight[c] for c in tree.nodes[v].children)
        for pos, v in enumerate(interiors):
            lights = [
                c
                for i, c in enumerate(tree.nodes[v].children)
                if i != heavy[v]
            ]
            top_w = max(weight[c] for c in lights)
            for c in lights:
                delta = top_w - weight[c]
                if delta:
                    add_down_heavy(c, delta)
                    for w in interiors[: pos + 1]:
                        weight[w] += delta
        if len(interiors) >= 2:
            delta_r = max(weight[c] for _, c in cat.light_children)
            for v in cat.path:
                weight[v] += delta_r
    return WeightedTree(tree, weight, heavy)


def check_balanced(wt: WeightedTree) -> None:
    """Raise StageInvariantError unless wt satisfies the balance contract.

    The weights come from balance_weights, so a violation is a bug in the
    balancing, not in the input.
    """
    tree = wt.tree
    for v in range(len(tree.nodes)):
        if tree.is_leaf(v):
            if wt.weight[v] < 1:
                raise StageInvariantError("balance", f"leaf {v} has weight < 1", v)
            continue
        ch = tree.nodes[v].children
        if wt.weight[v] != sum(wt.weight[c] for c in ch):
            raise StageInvariantError(
                "balance", f"node {v} weight is not the sum of children", v
            )
        hc = wt.heavy_child[v]
        lights = [wt.weight[c] for i, c in enumerate(ch) if i != hc]
        if len(set(lights)) != 1:
            raise StageInvariantError(
                "balance", f"light children of {v} are unequal", v
            )
        if wt.weight[ch[hc]] < lights[0]:
            raise StageInvariantError(
                "balance", f"heavy child of {v} is lighter than siblings", v
            )


# ---------------------------------------------------------------------------
# generators


def gen_tree(shape: str, dim: int, size: int, seed: int = 0) -> TreeRep:
    """Generate a stacking tree.

    random: `size` expansions, each on a leaf drawn uniformly by the seeded
    splitmix64 stream (chosen leaf removed from the list, its d children
    appended). serpentine: `size` expansions chained through child 0.
    balanced_rounds: `size` rounds, each expanding every current leaf.
    """
    if dim < 3:
        raise InvalidInputError(f"dimension must be at least 3, got {dim}")
    if size < 1:
        raise InvalidInputError("size must be at least 1")
    children: list[list[int] | None] = [None]  # node 0 = root, starts a leaf

    def expand(v: int) -> list[int]:
        ids = list(range(len(children), len(children) + dim))
        children[v] = ids
        children.extend([None] * dim)
        return ids

    if shape == "random":
        rng = SplitMix64(seed)
        leaves = [0]
        for _ in range(size):
            pick = rng.below(len(leaves))
            v = leaves.pop(pick)
            leaves.extend(expand(v))
    elif shape == "serpentine":
        v = 0
        for _ in range(size):
            v = expand(v)[0]
    elif shape == "balanced_rounds":
        leaves = [0]
        for _ in range(size):
            nxt: list[int] = []
            for v in leaves:
                nxt.extend(expand(v))
            leaves = nxt
    else:
        raise InvalidInputError(f"unknown tree shape {shape!r}")

    # renumber to canonical preorder ids via the nested form
    nested: list[Nested] = [None] * len(children)
    for v in range(len(children) - 1, -1, -1):
        ch = children[v]
        if ch is not None:
            nested[v] = [nested[c] for c in ch]
    return tree_from_nested(dim, nested[0])


# ---------------------------------------------------------------------------
# facet layout (pure combinatorics, shared by embedding and verification)


def facet_layout(tree: TreeRep) -> tuple[dict[int, tuple[int, ...]], dict[int, int]]:
    """Ordered facet of every node, plus each interior node's stacked vertex.

    The root facet is (0, ..., d-1); the stacked vertex of the i-th interior
    node (preorder) gets id d + i; child j's facet is the parent facet with
    position j replaced by the stacked vertex.
    """
    d = tree.dim
    node_facets: dict[int, tuple[int, ...]] = {tree.root: tuple(range(d))}
    stacked: dict[int, int] = {}
    next_vertex = d
    for v in tree.interior_ids:
        facet = node_facets[v]
        p = next_vertex
        next_vertex += 1
        stacked[v] = p
        for j, c in enumerate(tree.nodes[v].children):
            node_facets[c] = facet[:j] + (p,) + facet[j + 1 :]
    return node_facets, stacked


# ---------------------------------------------------------------------------
# polytope graphs


@dataclass
class PolytopeGraph:
    """1-skeleton of a stacked polytope: vertex count plus adjacency.

    `faces` is optional generator metadata (the face list known as a
    byproduct of construction); parsed graphs carry None there.
    """

    n: int
    adjacency: list[set[int]]
    faces: tuple[tuple[int, ...], ...] | None = None

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def to_json(self) -> str:
        return dump_json({"n": self.n, "edges": self.edges()})


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> PolytopeGraph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InvalidInputError(f"bad edge {e!r} for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return PolytopeGraph(n, adj)


def parse_graph(text: str | bytes) -> PolytopeGraph:
    obj = load_json(text)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInputError('graph JSON must be {"n": ..., "edges": [...]}')
    if not isinstance(obj["n"], int) or obj["n"] < 1:
        raise InvalidInputError("n must be a positive integer")
    return graph_from_edges(obj["n"], obj["edges"])


def graph_from_tree(tree: TreeRep) -> PolytopeGraph:
    """1-skeleton of the stacked polytope a tree describes."""
    d = tree.dim
    node_facets, stacked = facet_layout(tree)
    n = tree.n_vertices
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(d):
        for v in range(d):
            if u != v:
                adj[u].add(v)
    for v in tree.interior_ids:
        p = stacked[v]
        for u in node_facets[v]:
            adj[p].add(u)
            adj[u].add(p)
    faces = [tuple(sorted(node_facets[leaf])) for leaf in tree.leaf_ids]
    faces.append(tuple(range(d)))
    return PolytopeGraph(n, adj, tuple(sorted(faces)))


def tree_from_graph(g: PolytopeGraph, dim: int, base: Sequence[int]) -> TreeRep:
    """Recover the stacking tree of a graph relative to an ordered base facet.

    Vertices of degree d outside the base whose neighborhood is a clique are
    peeled off until only the base remains; replaying the removals in
    reverse rebuilds the stackings. Any failure along the way means g is not
    the skeleton of a polytope stacked over that base.
    """
    d = dim
    base = tuple(base)
    if len(base) != d or len(set(base)) != d:
        raise InvalidInputError(f"base must list {d} distinct vertices")
    if g.n < d + 1:
        raise InvalidInputError("graph too small to be a stacked polytope")
    adj = [set(a) for a in g.adjacency]
    alive = set(range(g.n))
    base_set = set(base)
    if not base_set <= alive:
        raise InvalidInputError("base vertex out of range")

    def removable(v: int) -> bool:
        if v in base_set or len(adj[v]) != d:
            return False
        nb = list(adj[v])
        return all(nb[j] in adj[nb[i]] for i in range(d) for j in range(i + 1, d))

    removals: list[tuple[int, frozenset[int]]] = []
    candidates = sorted(alive - base_set)
    while len(alive) > d:
        found = None
        for v in candidates:
            if v in alive and removable(v):
                found = v
                break
        if found is None:
            raise InvalidInputError("not a stacked polytope w.r.t. the given base")
        nbrs = frozenset(adj[found])
        removals.append((found, nbrs))
        for u in nbrs:
            adj[u].discard(found)
        adj[found].clear()
        alive.discard(found)
        candidates = sorted(alive - base_set)
    if alive != base_set or any(
        len(adj[v]) != d - 1 for v in alive
    ):
        raise InvalidInputError("base does not span a facet of the graph")

    # replay in reverse; track every stackable facet by vertex set
    placeholder: dict[frozenset[int], tuple[tuple[int, ...], list, int]] = {}
    top: list[Nested] = [None]
    placeholder[frozenset(base)] = (base, top, 0)
    for v, nbrs in reversed(removals):
        if nbrs not in placeholder:
            raise InvalidInputError("not a stacked polytope w.r.t. the given base")
        ordered, container, slot = placeholder.pop(nbrs)
        children: list[Nested] = [None] * d
        container[slot] = children
        for j in range(d):
            child_facet = ordered[:j] + (v,) + ordered[j + 1 :]
            placeholder[frozenset(child_facet)] = (child_facet, children, j)
    return tree_from_nested(d, top[0])


def find_facet(g: PolytopeGraph, dim: int) -> tuple[int, ...]:
    """Some genuine facet of a stacked polytope graph, deterministically.

    A minimum-degree vertex v has degree d and its link is the boundary of
    the facet fan around it, so v together with all but the largest of its
    neighbors spans a facet.
    """
    if g.faces:
        return g.faces[0]
    if g.n == dim + 1:
        return tuple(range(dim))
    v = min(range(g.n), key=lambda u: (len(g.adjacency[u]), u))
    if len(g.adjacency[v]) != dim:
        raise InvalidInputError("graph has no vertex of degree d; not stacked")
    nbrs = sorted(g.adjacency[v])
    return tuple(sorted([v] + nbrs[:-1]))


# ---------------------------------------------------------------------------
# hard-instance generators (3-dimensional)


def _stack_face(
    adj: list[set[int]], faces: list[tuple[int, ...]], face_idx: int
) -> int:
    """Stack a new vertex onto faces[face_idx]; returns the new vertex id."""
    a, b, c = faces[face_idx]
    p = len(adj)
    adj.append({a, b, c})
    for u in (a, b, c):
        adj[u].add(p)
    faces[face_idx] = (a, b, p)
    faces.append((a, c, p))
    faces.append((b, c, p))
    return p


def gen_lowerbound_graph(kind: str, n: int = 0, gadget: str = "serpentine") -> PolytopeGraph:
    """Hard-instance graph families in dimension 3.

    b3: the tetrahedron with every face stacked once per round, two rounds
    (20 vertices, 36 faces, the 12 newest of degree 3).

    gamma: b3 with a gadget chain glued into each of the 36 faces. n must be
    a positive multiple of 36; the n - 20 extra vertices are spread over the
    faces as evenly as possible (lower face index first), each face
    receiving a serpentine chain of stackings. The gadget shape is a
    placeholder and configurable in principle; only "serpentine" exists.
    """
    adj: list[set[int]] = [set() for _ in range(4)]
    for u in range(4):
        for v in range(4):
            if u != v:
                adj[u].add(v)
    faces: list[tuple[int, ...]] = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for _ in range(2):
        for idx in range(len(faces)):
            _stack_face(adj, faces, idx)

    if kind == "b3":
        return PolytopeGraph(len(adj), adj, tuple(sorted(tuple(sorted(f)) for f in faces)))
    if kind != "gamma":
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    if gadget != "serpentine":
        raise InvalidInputError(f"unknown gadget {gadget!r}")
    if n <= 0 or n % 36 != 0:
        raise InvalidInputError("gamma requires n to be a positive multiple of 36")
    extra = n - len(adj)  # n - 20 new vertices over 36 faces
    per, rem = divmod(extra, 36)
    sizes = [per + (1 if i < rem else 0) for i in range(36)]
    for i, size in enumerate(sizes):
        idx = i
        for _ in range(size):
            _stack_face(adj, faces, idx)
            idx = len(faces) - 1  # serpentine: keep stacking the newest face
    return PolytopeGraph(len(adj), adj, tuple(sorted(tuple(sorted(f)) for f in faces)))
