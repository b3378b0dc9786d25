"""Ordered d-ary stacking trees, their weights, and polytope graphs.

A stacked d-polytope built over a fixed base facet is encoded as an ordered
d-ary tree: the root stands for the starting copy of the base facet, every
interior node for a facet that was stacked on at some point, and every leaf
for a facet of the final polytope (the base facet itself stays outside the
tree). Child i of a node replaces the i-th vertex of the node's ordered
facet with the node's stacked vertex.

A tree is a child table rooted at node 0; the trees made here number
their nodes in preorder, so the preorder sequence of interior nodes is
simply their ascending id order. A polytope on n vertices has n - d
interior nodes and (n - d)(d - 1) + 1 leaves. The tree type (TreeRep), its
one contract check (check_tree) and its facet replay (facet_layout) live
in the facets module, which the verifier trusts; this module reads, writes
and generates trees. One walk numbers every tree built here (_grow): each
builder only says how an item expands into its children, the nested JSON
form's lists (tree_from_nested, which checks the tree it builds; to_nested
writes it), a generator's counters or child table (valid by construction
and left unchecked), or a graph's stackings. A graph is its vertex count
and adjacency alone, as in its JSON, checked where it enters
(check_graph): find_facet works out d from the edge count and finds the
least facet, the default base, and tree_from_graph grows the tree out from
a base. Both graph builders stack a vertex with one step (_stack).

The module also hosts the face-weight balancing step, one post-order pass
over the node ids that picks each node's heavy child on the way: weights
are integers throughout, every interior weight is the sum of its children,
light siblings share one weight, and the heavy child is never lighter. The
root weight of the balanced tree is what the embedding stage turns into a
grid resolution.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Sequence

from .errors import InvalidInputError, StageInvariantError
from .facets import TreeRep, check_dim, check_tree, facet_layout
from .rng import SplitMix64

Nested = None | list  # leaf | list of d children


def _nesting_limit() -> str:
    return (
        "the JSON nesting limit (the interpreter recursion limit, "
        f"{sys.getrecursionlimit()})"
    )


def load_json(text: str | bytes) -> object:
    """json.loads; malformed or too deeply nested text is invalid input."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or the integer digit limit
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
    """Build a TreeRep from the nested-list form, assigning preorder ids,
    and check it (check_tree)."""

    def expand(item: Nested) -> Nested:
        if item is not None and (not isinstance(item, list) or len(item) != dim):
            raise InvalidInputError(
                f"interior node must be a list of exactly {dim} children"
            )
        return item

    tree = _grow(dim, nested, expand)
    check_tree(tree)
    return tree


def to_nested(tree: TreeRep) -> Nested:
    """The nested-list form: None for a leaf, a list of d children."""
    out: list[Nested] = [None] * len(tree.children)
    for v in range(len(tree.children) - 1, -1, -1):
        ch = tree.children[v]
        if ch:
            out[v] = [out[c] for c in ch]
    return out[0]


def _grow(dim: int, root: object, expand: Callable[[object], Sequence | None]) -> TreeRep:
    """The tree grown from root, its nodes numbered in preorder as the walk
    meets them: expand(item) gives an item's children in order, or nothing
    at a leaf. The walk keeps its own stack; recursion would hit the
    interpreter limit on chains."""
    children: list[list[int]] = []
    items, parents = [root], [-1]
    while items:
        kids = expand(items.pop())
        parent = parents.pop()
        node = len(children)
        if parent >= 0:
            children[parent].append(node)
        children.append([])
        if kids:
            items += reversed(kids)
            parents += [node] * len(kids)
    return TreeRep(dim, [tuple(ch) for ch in children])


def parse_tree(text: str | bytes) -> TreeRep:
    """Parse the JSON tree form {"dim": d, "tree": nested}."""
    return tree_from_doc(load_json(text))


def tree_from_doc(obj: object) -> TreeRep:
    """Build a tree from a decoded document {"dim": d, "tree": nested}."""
    if not isinstance(obj, dict) or "dim" not in obj or "tree" not in obj:
        raise InvalidInputError('tree JSON must be {"dim": d, "tree": ...}')
    check_dim(obj["dim"])
    return tree_from_nested(obj["dim"], obj["tree"])


def tree_to_json(tree: TreeRep) -> str:
    """The JSON tree form {"dim": d, "tree": nested}."""
    return dump_json({"dim": tree.dim, "tree": to_nested(tree)})


# ---------------------------------------------------------------------------
# balancing


@dataclass
class WeightedTree:
    tree: TreeRep
    weight: list[int]  # by node id
    heavy_child: dict[int, int]  # interior node id -> child index

    @property
    def root_weight(self) -> int:
        return self.weight[0]


def balance_weights(tree: TreeRep) -> WeightedTree:
    """Assign balanced integer face weights in one post-order pass.

    Descending ids visit every descendant before its node. Leaves weigh 1.
    An interior node's heavy child has the largest subtree, ties going to
    the lowest child index; following heavy children from a path top (the
    root or a light child) walks its heavy path down to a leaf. At every
    interior node each light child is raised to its heaviest light sibling,
    the raise running down that child's heavy path so sums stay exact, and
    the node then weighs the sum of its children. Each node carries the
    largest light weight on its heavy path and the path's count of interior
    nodes: once a path with two or more interior nodes is complete at its
    top, that largest light weight is added down the whole path, so the
    heavy child never falls behind its light siblings (a single-interior
    path is a star of fresh leaves, balanced without it). The padding and
    the raise of a light child share one walk, so each heavy path is walked
    at most once and the pass is linear in the node count.
    """
    children = tree.children
    size = [1] * len(children)
    weight = [1] * len(children)
    heavy: dict[int, int] = {}
    light_max = [0] * len(children)  # largest light weight on v's heavy path
    interiors = [0] * len(children)  # interior nodes on v's heavy path

    def add_down_heavy(u: int, delta: int) -> None:
        while u in heavy:
            weight[u] += delta
            u = children[u][heavy[u]]
        weight[u] += delta

    def padding(u: int) -> int:
        return light_max[u] if interiors[u] >= 2 else 0

    for v in range(len(children) - 1, -1, -1):
        ch = children[v]
        if not ch:
            continue
        best = 0
        for i in range(1, len(ch)):
            if size[ch[i]] > size[ch[best]]:
                best = i
        heavy[v] = best
        size[v] += sum(size[c] for c in ch)
        h = ch[best]
        lights = [c for i, c in enumerate(ch) if i != best]
        # a light child tops its own heavy path: pad it, then raise it
        top_w = max(weight[c] + padding(c) for c in lights)
        for c in lights:
            if top_w != weight[c]:
                add_down_heavy(c, top_w - weight[c])
        weight[v] = top_w * len(lights) + weight[h]
        light_max[v] = max(top_w, light_max[h])
        interiors[v] = interiors[h] + 1
    add_down_heavy(0, padding(0))
    return WeightedTree(tree, weight, heavy)


def check_balanced(wt: WeightedTree) -> None:
    """Raise StageInvariantError unless wt satisfies the balance contract.

    The weights come from balance_weights, so a violation is a bug in the
    balancing, not in the input.
    """
    tree = wt.tree
    for v in range(len(tree.children)):
        if tree.is_leaf(v):
            if wt.weight[v] < 1:
                raise StageInvariantError("balance", f"leaf {v} has weight < 1", v)
            continue
        ch = tree.children[v]
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
    check_dim(dim)
    if type(size) is not int or size < 1:
        raise InvalidInputError(f"size must be an integer >= 1, got {size!r}")
    if type(seed) is not int:
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if shape == "random":
        rng = SplitMix64(seed)
        children: list[range] = [range(0)]  # node 0 = root, starts a leaf
        leaves = [0]
        for _ in range(size):
            v = leaves.pop(rng.below(len(leaves)))
            children[v] = range(len(children), len(children) + dim)
            leaves += children[v]
            children += [range(0)] * dim
        return _grow(dim, 0, children.__getitem__)
    # a node's item counts the expansions left below it: serpentine spends
    # them down child 0, balanced_rounds on every child
    if shape == "serpentine":
        return _grow(dim, size, lambda k: [k - 1] + [0] * (dim - 1) if k else None)
    if shape == "balanced_rounds":
        return _grow(dim, size, lambda k: [k - 1] * dim if k else None)
    raise InvalidInputError(f"unknown tree shape {shape!r}")


# ---------------------------------------------------------------------------
# polytope graphs


@dataclass
class PolytopeGraph:
    """1-skeleton of a stacked polytope: vertex count and adjacency, all
    its JSON holds."""

    n: int
    adjacency: list[set[int]]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return out

    def to_json(self) -> str:
        return dump_json({"n": self.n, "edges": self.edges()})


def graph_from_edges(n: int, edges: list[list[int]]) -> PolytopeGraph:
    """Graph on vertices 0..n-1 from a list of [u, v] pairs of distinct ids;
    any other shape or type (bools, floats, tuples), and fewer pairs than
    any stacked polytope on n vertices has edges, is invalid input."""
    if type(n) is not int or n < 1:
        raise InvalidInputError("n must be a positive integer")
    if not isinstance(edges, list):
        raise InvalidInputError("edges must be a list of [u, v] pairs")
    # a stacked d-polytope has d n - d(d+1)/2 >= 3n - 6 edges for d >= 3;
    # checked before allocating, since n alone can ask for any amount
    if len(edges) < 3 * n - 6:
        raise InvalidInputError(
            f"{len(edges)} edges for n={n}: a stacked polytope has at least {3 * n - 6}"
        )
    adj: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        if not (
            isinstance(e, list)
            and len(e) == 2
            and all(type(x) is int and 0 <= x < n for x in e)
            and e[0] != e[1]
        ):
            raise InvalidInputError(f"bad edge {e!r} for n={n}")
        u, v = e
        adj[u].add(v)
        adj[v].add(u)
    return PolytopeGraph(n, adj)


def graph_from_doc(obj: object) -> PolytopeGraph:
    """Build a graph from a decoded document {"n": n, "edges": [...]}."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInputError('graph JSON must be {"n": ..., "edges": [...]}')
    return graph_from_edges(obj["n"], obj["edges"])


def graph_from_tree(tree: TreeRep) -> PolytopeGraph:
    """1-skeleton of the stacked polytope a tree describes (check_tree's)."""
    check_tree(tree)
    d = tree.dim
    node_facets = facet_layout(tree)
    adj = [set(range(d)) - {u} for u in range(d)]
    for v in tree.interior_ids:
        _stack(adj, node_facets[v])
    return PolytopeGraph(len(adj), adj)


def check_graph(g: PolytopeGraph) -> None:
    """InvalidInputError unless g is a PolytopeGraph, n an int (not a bool)
    >= 1 and adjacency a list of n sets of ids in 0..n-1, loop-free, each
    edge at both ends."""
    if not isinstance(g, PolytopeGraph):
        raise InvalidInputError(f"a graph must be a PolytopeGraph, got {type(g).__name__}")
    n, adj = g.n, g.adjacency
    if type(n) is not int or n < 1:
        raise InvalidInputError("n must be a positive integer")
    if type(adj) is not list or len(adj) != n or not all(isinstance(a, set) for a in adj):
        raise InvalidInputError(f"adjacency must be a list of {n} sets")
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if type(v) is not int or not 0 <= v < n or v == u or u not in adj[v]:
                raise InvalidInputError(f"vertex {u} lists {v!r}, not another id that lists {u}")


def tree_from_graph(g: PolytopeGraph, base: Sequence[int] | None = None) -> TreeRep:
    """Recover the stacking tree of a graph relative to an ordered base
    facet, a list or tuple of d vertex ids; None means the least facet
    (find_facet, which also fixes d).

    One forward walk from the base (_grow) numbers the nodes in preorder.
    A stacked d-polytope's graph is a d-tree, and a d-clique lies in as
    many stacked simplices as it has common neighbours: besides the vertex
    across it (from the parent's simplex), a node's facet has one, its
    stacked vertex, if the node is interior and none at a leaf. Child j's
    facet puts that vertex at position j, across from the vertex it replaces.

    The walk places each vertex once and every stacking edge is in g by
    construction; so once every vertex is placed, g is exactly the tree's
    graph if it has as many edges, d(d-1)/2 + d(n-d). Anything else (a base
    that is no clique, two common neighbours, a vertex placed twice or
    never, more edges) means g is not stacked over that base.
    """
    if base is None:
        base = find_facet(g)  # checks g
    else:
        check_graph(g)
        if not isinstance(base, (list, tuple)) or not all(type(v) is int for v in base):
            raise InvalidInputError("base must be a list or tuple of int vertex ids")
        base = tuple(base)
    d, n, adj = len(base), g.n, g.adjacency
    check_dim(d)
    if len(set(base)) != d:
        raise InvalidInputError(f"base must list {d} distinct vertices")
    if n < d + 1:
        raise InvalidInputError("graph too small to be a stacked polytope")
    if not all(0 <= v < n for v in base):
        raise InvalidInputError("base vertex out of range")
    not_stacked = "not a stacked polytope w.r.t. the given base"
    if any(u not in adj[v] for i, v in enumerate(base) for u in base[:i]):
        raise InvalidInputError(not_stacked)
    placed = set(base)

    def expand(item: tuple[tuple[int, ...], int]) -> list | None:
        facet, across = item  # the vertex across a facet is in its parent's simplex
        # smallest set first: O(deg of the parent's stacked vertex), any base
        common = set.intersection(*sorted([adj[v] for v in facet], key=len)) - {across}
        if not common:
            return None
        p = common.pop()
        if common or p in placed:
            raise InvalidInputError(not_stacked)
        placed.add(p)
        return [(facet[:j] + (p,) + facet[j + 1 :], facet[j]) for j in range(d)]

    tree = _grow(d, (base, -1), expand)  # the root has no vertex across
    if len(placed) < n or sum(map(len, adj)) != d * (d - 1) + 2 * d * (n - d):
        raise InvalidInputError(not_stacked)
    return tree


def find_facet(g: PolytopeGraph) -> tuple[int, ...]:
    """The least facet of a stacked polytope's graph, as sorted ids.

    Each stacking adds one vertex and d edges, so a stacked d-polytope on n
    vertices has E = d n - d(d+1)/2 edges (the equality case of Barnette's
    lower bound theorem), a count strictly increasing in d for
    3 <= d <= n-1: d is the root at most n-1 of d^2 - (2n-1) d + 2E = 0.

    A stacked d-polytope's graph is a d-tree: its (d+1)-cliques are the
    stacked simplices, and a d-clique lies in as many as it has common
    neighbours, so a facet is a d-clique with exactly one. With no interior
    faces below dimension d-1, every clique of at most d-1 vertices lies on
    a facet, so the least facet grows greedily from vertex 0, no step
    undone: the clique's least common neighbour (above the last vertex
    added) up to d-1 vertices, then the first that closes a facet.
    """
    check_graph(g)
    n, adj = g.n, g.adjacency
    degrees = sum(map(len, adj))  # 2E
    # a simple graph has 2E <= n(n-1), so the discriminant is at least 1
    d = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 4 * degrees)) // 2
    if d < 3 or d * (2 * n - 1 - d) != degrees:
        raise InvalidInputError(
            f"{degrees // 2} edges on {n} vertices: a stacked d-polytope "
            "has d n - d(d+1)/2 for some d >= 3"
        )
    clique, common = [0], set(adj[0])
    while len(clique) < d - 1 and common:
        clique.append(min(common))
        common &= adj[clique[-1]]
    for v in sorted(common):
        if len(common & adj[v]) == 1:
            return (*clique, v)
    raise InvalidInputError("graph has no facet; not a stacked polytope")


# ---------------------------------------------------------------------------
# hard-instance generators (3-dimensional)


def _stack(adj: list[set[int]], facet: Sequence[int]) -> int:
    """Stack a new vertex on a facet, joined to every facet vertex; returns
    its id, len(adj) before the call."""
    p = len(adj)
    adj.append(set(facet))
    for u in facet:
        adj[u].add(p)
    return p


def _stack_face(adj: list[set[int]], faces: list[tuple[int, ...]], face_idx: int) -> None:
    """Stack a new vertex onto faces[face_idx] and replace the face by its three."""
    a, b, c = faces[face_idx]
    p = _stack(adj, (a, b, c))
    faces[face_idx] = (a, b, p)
    faces.append((a, c, p))
    faces.append((b, c, p))


def gen_lowerbound_graph(kind: str, n: int = 0) -> PolytopeGraph:
    """Hard-instance graph families in dimension 3.

    b3: the tetrahedron with every face stacked once per round, two rounds
    (20 vertices, 36 faces, the 12 newest of degree 3). n must be 0 (the
    default) or 20.

    gamma: b3 with a serpentine chain of stackings glued into each of the 36
    faces. n must be a positive multiple of 36; the n - 20 extra vertices
    are spread over the faces as evenly as possible (lower face index first).
    """
    adj = [set(range(4)) - {u} for u in range(4)]
    faces: list[tuple[int, ...]] = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for _ in range(2):
        for idx in range(len(faces)):
            _stack_face(adj, faces, idx)

    if kind == "b3":
        if type(n) is not int or n not in (0, 20):
            raise InvalidInputError(f"b3 has 20 vertices, got n={n!r}")
        return PolytopeGraph(len(adj), adj)
    if kind != "gamma":
        raise InvalidInputError(f"unknown generator kind {kind!r}")
    if type(n) is not int or n <= 0 or n % 36 != 0:
        raise InvalidInputError("gamma requires n to be a positive multiple of 36")
    extra = n - len(adj)  # n - 20 new vertices over 36 faces
    per, rem = divmod(extra, 36)
    sizes = [per + (1 if i < rem else 0) for i in range(36)]
    for i, size in enumerate(sizes):
        idx = i
        for _ in range(size):
            _stack_face(adj, faces, idx)
            idx = len(faces) - 1  # serpentine: keep stacking the newest face
    return PolytopeGraph(len(adj), adj)
