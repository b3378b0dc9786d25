import dataclasses
import hashlib
import inspect
import json
import math
import random
import time
import tracemalloc
from enum import IntEnum
from functools import partial

import pytest

import gridlift
from gridlift import (
    InvalidInputError,
    PolytopeGraph,
    StageInvariantError,
    TreeRep,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    make_certificate,
    parse_tree,
    realization_from_json,
    realize_graph,
    run_pipeline,
    tree_from_graph,
)
from gridlift.facets import check_tree
from gridlift.trees import (
    balance_weights,
    check_balanced,
    find_facet,
    graph_from_doc,
    graph_from_edges,
    load_json,
    to_nested,
    tree_from_nested,
    tree_to_json,
)
from reference import (
    nonseparating_triangles,
    package_modules,
    reference_balance_weights,
    tree_facets,
)
from test_census import all_trees


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def parse_graph(text):
    """A graph from its JSON text, as the CLI reads it."""
    return graph_from_doc(load_json(text))


def reference_tree_from_graph(g, base):
    """tree_from_graph by the quadratic scan: after every removal, re-sort
    the remaining vertices and peel the smallest removable one."""
    base = tuple(base)
    d = len(base)
    adj = [set(a) for a in g.adjacency]
    alive = set(range(g.n))
    base_set = set(base)

    def removable(v):
        if v in base_set or len(adj[v]) != d:
            return False
        nb = list(adj[v])
        return all(nb[j] in adj[nb[i]] for i in range(d) for j in range(i + 1, d))

    removals = []
    while len(alive) > d:
        found = next((v for v in sorted(alive - base_set) if removable(v)), None)
        if found is None:
            raise InvalidInputError("not a stacked polytope w.r.t. the given base")
        nbrs = frozenset(adj[found])
        removals.append((found, nbrs))
        for u in nbrs:
            adj[u].discard(found)
        adj[found].clear()
        alive.discard(found)
    if alive != base_set or any(len(adj[v]) != d - 1 for v in alive):
        raise InvalidInputError("base does not span a facet of the graph")
    top = [None]
    placeholder = {frozenset(base): (base, top, 0)}
    for v, nbrs in reversed(removals):
        if nbrs not in placeholder:
            raise InvalidInputError("not a stacked polytope w.r.t. the given base")
        ordered, container, slot = placeholder.pop(nbrs)
        children = [None] * d
        container[slot] = children
        for j in range(d):
            child_facet = ordered[:j] + (v,) + ordered[j + 1 :]
            placeholder[frozenset(child_facet)] = (child_facet, children, j)
    return tree_from_nested(d, top[0])


def assert_preorder(tree):
    """Every child id exceeds its parent's, and the children's subtrees
    tile the ids after their parent's, in child order."""
    n = len(tree.children)
    size = [1] * n
    for v in range(n - 1, -1, -1):
        for c in tree.children[v]:
            assert c > v
            size[v] += size[c]
    for v, ch in enumerate(tree.children):
        start = v + 1
        for c in ch:
            assert c == start
            start += size[c]
        assert start == v + size[v]
    assert size[0] == n


def relabelling(n, seed):
    """The random vertex relabelling relabelled_graph applies: v -> perm[v]."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabelled_graph(tree, seed):
    """The tree's 1-skeleton under a random vertex relabelling, and its base."""
    g = graph_from_tree(tree)
    perm = relabelling(g.n, seed)
    adj = [set() for _ in range(g.n)]
    for u, nbrs in enumerate(g.adjacency):
        adj[perm[u]] = {perm[v] for v in nbrs}
    return PolytopeGraph(g.n, adj), tuple(perm[v] for v in range(tree.dim))


class TestParsing:
    def test_tetrahedron(self, tet_tree):
        assert tet_tree.dim == 3
        assert tet_tree.interior_count == 1
        assert tet_tree.leaf_count == 3
        assert tet_tree.n_vertices == 4
        assert to_nested(tet_tree) == [None, None, None]

    def test_two_stack(self, two_stack_tree):
        assert two_stack_tree.interior_count == 2
        assert two_stack_tree.leaf_count == 5
        assert two_stack_tree.n_vertices == 5

    def test_round_trip_json(self, two_stack_tree):
        doc = json.loads(tree_to_json(two_stack_tree))
        again = tree_from_nested(doc["dim"], doc["tree"])
        assert to_nested(again) == to_nested(two_stack_tree)

    def test_rejects_leaf_root(self):
        with pytest.raises(InvalidInputError, match="^root must be an interior node, got a leaf$"):
            tree_from_nested(3, None)

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidInputError):
            tree_from_nested(3, [None, None])
        with pytest.raises(InvalidInputError):
            tree_from_nested(4, [None, None, None])

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError, match="^dimension must be an integer >= 3, got 2$"):
            tree_from_nested(2, [None, None])

    def test_rejects_bad_json(self):
        with pytest.raises(InvalidInputError):
            parse_tree("{not json")
        with pytest.raises(InvalidInputError):
            parse_tree('{"no": "tree"}')

    def test_counting_identity(self):
        for d, size, seed in [(3, 9, 1), (4, 7, 2), (5, 6, 3), (6, 4, 4)]:
            t = gen_tree("random", d, size, seed)
            assert t.leaf_count == t.interior_count * (d - 1) + 1
            assert t.n_vertices == d + t.interior_count


# malformed child tables: (dim, children, the nested forms that give it)
LEAVES = [()] * 3
MALFORMED_TREES = {
    "id_beyond_the_table": (3, [(1, 2, 3), (), ()], []),
    "id_out_of_range": (3, [(1, 2, 9), *LEAVES], []),
    "negative_id": (3, [(1, 2, -1), *LEAVES], []),
    "repeated_id": (3, [(1, 1, 2), *LEAVES], []),
    "root_names_itself": (3, [(0, 1, 2), (), ()], []),
    "child_below_its_parent": (3, [(2, 3, 4), (5, 6, 7), (1, 8, 9), *[()] * 7], []),
    "orphan_node": (3, [(1, 2, 3), *LEAVES, ()], []),
    "root_arity": (3, [(1, 2), (), ()], [[None, None]]),
    "inner_arity": (3, [(1, 2, 3), (4, 5), (), (), (), ()], [[[None, None], None, None]]),
    "leaf_root": (3, [()], [None]),
    "empty_table": (3, [], []),
    "list_row": (3, [[1, 2, 3], *LEAVES], []),
    "None_id": (3, [(1, 2, None), *LEAVES], []),
    "str_id": (3, [("1", 2, 3), *LEAVES], []),
    "bool_id": (3, [(True, 2, 3), *LEAVES], []),
    "dim_2": (2, [(1, 2), (), ()], [[None, None]]),
    "dim_True": (True, [(1,), ()], [[None]]),
    "dim_str": ("3", [(1, 2, 3), *LEAVES], [[None, None, None]]),
}
# objects handed over where a TreeRep belongs
NOT_TREES = {
    "str": "x",
    "tree_document": {"dim": 3, "tree": [None, None, None]},
    "graph": PolytopeGraph(1, [set()]),
}


class TestTreeContract:
    """check_tree is the one check of a stacking tree, where it enters:
    a malformed child table is invalid input to every entry point, never
    an IndexError or TypeError from a stage that indexes it."""

    @pytest.mark.parametrize("name", MALFORMED_TREES)
    def test_every_entry_point_rejects(self, name, tet_result):
        dim, children, nested_forms = MALFORMED_TREES[name]
        tree = TreeRep(dim, children)
        with pytest.raises(InvalidInputError):
            run_pipeline(tree)
        with pytest.raises(InvalidInputError):
            make_certificate(tet_result[0], tree)
        # a hand-built table would otherwise give a wrong graph or a KeyError
        with pytest.raises(InvalidInputError):
            graph_from_tree(tree)
        for nested in nested_forms:
            with pytest.raises(InvalidInputError):
                tree_from_nested(dim, nested)

    @pytest.mark.parametrize("name", NOT_TREES)
    def test_every_entry_point_rejects_a_non_tree(self, name, tet_result):
        # one isinstance test in check_tree, before any field is read; None
        # is make_certificate's "no tree", so it is left to the other two
        for entry in (run_pipeline, graph_from_tree, partial(make_certificate, tet_result[0])):
            with pytest.raises(InvalidInputError, match="^a tree must be a TreeRep, got "):
                entry(NOT_TREES[name])
        for entry in (run_pipeline, graph_from_tree):
            with pytest.raises(InvalidInputError, match="^a tree must be a TreeRep, got "):
                entry(None)

    def test_accepts_any_order_with_children_above_parents(self):
        # breadth-first ids: node 2 is the root's second child, not the
        # first grandchild as in preorder; the replays need only that every
        # child's id is above its parent's
        bfs = TreeRep(3, [(1, 2, 3), (4, 5, 6), (7, 8, 9), *[()] * 7])
        check_tree(bfs)
        preorder = tree_from_nested(3, to_nested(bfs))
        assert preorder.children[1:3] == [(2, 3, 4), ()]
        realization, report = run_pipeline(bfs)
        assert report.certificate.ok
        assert realization.coords == run_pipeline(preorder)[0].coords


TET_CHILDREN = [(1, 2, 3), (), (), ()]
TET_GRAPH = graph_from_tree(TreeRep(3, TET_CHILDREN))
# each exported function that takes a dimension, as an argument, a JSON
# field or a tree's dim, called with `dim` and the tetrahedron's realization;
# a graph fixes its own (find_facet), or its base's length does
DIM_ENTRY_POINTS = {
    "gen_tree": lambda dim, r: gen_tree("random", dim, 5),
    "run_pipeline": lambda dim, r: run_pipeline(TreeRep(dim, TET_CHILDREN)),
    "graph_from_tree": lambda dim, r: graph_from_tree(TreeRep(dim, TET_CHILDREN)),
    "make_certificate": lambda dim, r: make_certificate(r, TreeRep(dim, TET_CHILDREN)),
    "parse_tree": lambda dim, r: parse_tree(json.dumps({"dim": dim, "tree": [None] * 3})),
    "realization_from_json": lambda dim, r: realization_from_json(
        json.dumps({"dim": dim, "coords": [], "facets": [], "base_facet": []})
    ),
}


class TestDimContract:
    """check_dim is the one dimension rule: an int, not a bool, >= 3."""

    @pytest.mark.parametrize("dim", ["3", 3.0, True, 2])
    @pytest.mark.parametrize("entry", DIM_ENTRY_POINTS)
    def test_every_entry_point_rejects(self, entry, dim, tet_result):
        with pytest.raises(InvalidInputError) as info:
            DIM_ENTRY_POINTS[entry](dim, tet_result[0])
        assert str(info.value) == f"dimension must be an integer >= 3, got {dim!r}"

    @pytest.mark.parametrize("dim", ["3", 3.0, True, 2])
    def test_certificate_gives_a_witness(self, dim, tet_result):
        # a realization's own d is read by the certificate's input rule: a
        # witness with check_dim's text, where a tree's d raises above
        cert = make_certificate(dataclasses.replace(tet_result[0], d=dim))
        assert cert.ok is False
        assert cert.witnesses == [f"dimension must be an integer >= 3, got {dim!r}"]

    def test_covers_every_dim_parameter(self):
        functions = [getattr(gridlift, name) for name in gridlift.__all__]
        takes_dim = {
            f.__name__
            for f in functions
            if inspect.isfunction(f) and "dim" in inspect.signature(f).parameters
        }
        assert takes_dim == {"gen_tree"}
        assert takes_dim <= DIM_ENTRY_POINTS.keys()

    @pytest.mark.parametrize(
        "recover", [tree_from_graph, realize_graph], ids=["tree_from_graph", "realize_graph"]
    )
    def test_base_of_two_ids_is_dimension_2(self, recover):
        with pytest.raises(InvalidInputError) as info:
            recover(TET_GRAPH, (0, 1))
        assert str(info.value) == "dimension must be an integer >= 3, got 2"


def k4_with(rows=None):
    """The tetrahedron's adjacency as fresh sets, some rows replaced."""
    adj = [set(a) for a in TET_GRAPH.adjacency]
    for v, row in (rows or {}).items():
        adj[v] = row
    return adj


# each function that takes a PolytopeGraph, called on `g`
GRAPH_ENTRY_POINTS = {
    "find_facet": find_facet,
    "tree_from_graph": lambda g: tree_from_graph(g, (0, 1, 2)),
    "realize_graph": realize_graph,
}
# hand-built graphs that a stage would otherwise index or iterate wrongly
MALFORMED_GRAPHS = {
    "no_vertices": PolytopeGraph(0, []),
    "n_beyond_the_adjacency": PolytopeGraph(5, k4_with()),
    "str_n": PolytopeGraph("4", k4_with()),
    "bool_n": PolytopeGraph(True, [set()]),
    "list_adjacency": PolytopeGraph(4, [sorted(a) for a in k4_with()]),
    "tuple_of_sets": PolytopeGraph(4, tuple(k4_with())),
    "self_loop": PolytopeGraph(4, k4_with({0: {0, 1, 2, 3}})),
    "negative_id": PolytopeGraph(4, k4_with({0: {1, 2, 3, -1}})),
    "id_out_of_range": PolytopeGraph(4, k4_with({0: {1, 2, 3, 4}})),
    "bool_id": PolytopeGraph(4, k4_with({2: {0, True, 3}})),
    "one_way_edge": PolytopeGraph(4, k4_with({0: {1, 2}})),
    # objects handed over where a PolytopeGraph belongs
    "none": None,
    "graph_document": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "tree": TreeRep(3, TET_CHILDREN),
}


class TestGraphContract:
    """check_graph is the one check of a PolytopeGraph, where it enters:
    a malformed hand-built graph is invalid input to every graph entry
    point, never an IndexError or TypeError from the walk that reads it."""

    @pytest.mark.parametrize("name", MALFORMED_GRAPHS)
    @pytest.mark.parametrize("entry", GRAPH_ENTRY_POINTS)
    def test_every_entry_point_rejects(self, entry, name):
        with pytest.raises(InvalidInputError):
            GRAPH_ENTRY_POINTS[entry](MALFORMED_GRAPHS[name])

    @pytest.mark.parametrize(
        "base", [(False, 1, 2), (0, 1, 2.0), (0, 1, 4), (0, 1, 1), 3, 7, "012", {0, 1, 2}]
    )
    def test_base_must_be_vertex_ids(self, base):
        # a list or tuple of distinct ids in range; None is the least facet.
        # An int in base's place is a dimension, as the graph route once took
        with pytest.raises(InvalidInputError, match="^base"):
            tree_from_graph(TET_GRAPH, base)
        with pytest.raises(InvalidInputError, match="^base"):
            realize_graph(TET_GRAPH, base)

    @pytest.mark.parametrize("base", [None, (2, 0, 1)])
    def test_one_graph_check_per_realization(self, monkeypatch, base):
        # find_facet checks the graph when there is no base, tree_from_graph
        # when there is one: never both
        calls = []
        check = gridlift.trees.check_graph

        def counting(g):
            calls.append(g)
            check(g)

        monkeypatch.setattr(gridlift.trees, "check_graph", counting)
        assert realize_graph(TET_GRAPH, base=base)[1].certificate.ok
        assert calls == [TET_GRAPH]

    def test_covers_every_graph_parameter(self):
        functions = [getattr(gridlift, name) for name in gridlift.__all__] + [find_facet]
        takes_graph = {
            f.__name__
            for f in functions
            if inspect.isfunction(f)
            and any(
                p.annotation is PolytopeGraph
                for p in inspect.signature(f, eval_str=True).parameters.values()
            )
        }
        assert takes_graph == {"find_facet", "tree_from_graph", "realize_graph"}
        assert takes_graph <= GRAPH_ENTRY_POINTS.keys()

    def test_no_graph_function_takes_a_dimension(self):
        # a stacked graph fixes its own dimension by its edge count, so no
        # function of the package that takes a graph takes a dim beside it
        takes_graph = {
            f"{module.__name__}.{name}": inspect.signature(f, eval_str=True).parameters
            for module in package_modules()
            for name, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
        }
        takes_graph = {
            name: params
            for name, params in takes_graph.items()
            if any(p.annotation is PolytopeGraph for p in params.values())
        }
        assert len(takes_graph) >= 3
        assert [name for name, params in takes_graph.items() if "dim" in params] == []


def int_enum(value: int) -> IntEnum:
    """value as an IntEnum member: an int subclass, equal and hashed alike."""
    return IntEnum("Id", {"V": value}).V


K4_EDGES = [[u, v] for u in range(4) for v in range(u + 1, 4)]
# each int an entry point takes: (a plain value it accepts, the call with x there)
INT_SLOTS = {
    "gen_tree_dim": (3, lambda x: gen_tree("random", x, 5)),
    "gen_tree_size": (5, lambda x: gen_tree("random", 3, x)),
    "gen_tree_seed": (1, lambda x: gen_tree("random", 3, 5, x)),
    "graph_n": (4, lambda x: find_facet(PolytopeGraph(x, k4_with()))),
    "graph_vertex_id": (1, lambda x: find_facet(PolytopeGraph(4, k4_with({0: {x, 2, 3}})))),
    "tree_from_graph_base_id": (1, lambda x: tree_from_graph(TET_GRAPH, (0, x, 2))),
    "graph_from_edges_n": (4, lambda x: graph_from_edges(x, K4_EDGES)),
    "graph_from_edges_id": (1, lambda x: graph_from_edges(4, [[0, x], *K4_EDGES[1:]])),
    "gamma_n": (36, lambda x: gen_lowerbound_graph("gamma", x)),
    "b3_n": (20, lambda x: gen_lowerbound_graph("b3", x)),
}


class TestIntContract:
    """One rule for an int, check_dim's: type(x) is int, so an int subclass
    such as an IntEnum is invalid input wherever an int enters, even one
    equal to a value the same call accepts."""

    @pytest.mark.parametrize("slot", INT_SLOTS)
    def test_int_subclass_rejected(self, slot):
        value, call = INT_SLOTS[slot]
        call(value)
        with pytest.raises(InvalidInputError):
            call(int_enum(value))


def comb(levels: int):
    """A d=3 comb: a heavy path of `levels` interior nodes, each of which also
    hangs one leaf and one single-stacking subtree."""
    nested = None
    for _ in range(levels):
        nested = [None, [None, None, None], nested]
    return tree_from_nested(3, nested)


class TestHeavyPaths:
    def test_two_stack_heavy(self, two_stack_tree):
        heavy = balance_weights(two_stack_tree).heavy_child
        # second child (the interior one, 4 of the 7 nodes) is heavy at the
        # root; the inner node's leaves tie, so its first child wins
        assert heavy == {0: 1, 2: 0}

    def test_light_depth_bound(self):
        for d, size, seed in [(3, 40, 0), (3, 40, 1), (4, 20, 2), (5, 12, 3)]:
            t = gen_tree("random", d, size, seed)
            heavy = balance_weights(t).heavy_child
            bound = math.floor(math.log2(t.n_vertices))
            parent_of = {c: v for v, ch in enumerate(t.children) for c in ch}
            for leaf in t.leaf_ids:
                light = 0
                v = leaf
                while v != 0:
                    parent = parent_of[v]
                    if t.children[parent][heavy[parent]] != v:
                        light += 1
                    v = parent
                assert light <= bound


class TestBalance:
    def test_tetrahedron(self, tet_tree):
        wt = balance_weights(tet_tree)
        assert list(wt.weight) == [3, 1, 1, 1]
        assert wt.root_weight == 3

    def test_two_stack(self, two_stack_tree):
        wt = balance_weights(two_stack_tree)
        # ids: 0 root; 1 leaf; 2 inner; 3,4,5 its leaves; 6 leaf
        assert list(wt.weight) == [6, 1, 4, 2, 1, 1, 1]
        assert wt.root_weight == 6

    def test_balanced_predicate_randoms(self):
        for d, size, seed in [(3, 30, 0), (3, 31, 5), (4, 18, 1), (5, 11, 2), (6, 8, 3)]:
            t = gen_tree("random", d, size, seed)
            wt = balance_weights(t)
            check_balanced(wt)

    def test_root_weight_bound(self):
        for d, size, seed in [(3, 50, 4), (4, 25, 5), (5, 15, 6)]:
            t = gen_tree("random", d, size, seed)
            wt = balance_weights(t)
            assert wt.root_weight <= (2 * d) ** ceil_log2(t.n_vertices)

    def test_equals_path_by_path_reference(self):
        trees = [
            t for d, k_max in [(3, 6), (4, 4), (5, 3)]
            for k in range(1, k_max + 1)
            for t in all_trees(d, k)
        ]
        for d in range(3, 7):
            trees += [gen_tree("random", d, 1 + seed % 40, seed) for seed in range(150)]
            trees += [gen_tree("serpentine", d, size) for size in (1, 2, 7, 30)]
            trees += [gen_tree("balanced_rounds", d, rounds) for rounds in (1, 2, 3)]
        trees += [comb(levels) for levels in (1, 2, 3, 100, 300)]
        assert len(trees) == 1980 + 4 * 157 + 5
        for t in trees:
            wt = balance_weights(t)
            assert (wt.weight, wt.heavy_child) == reference_balance_weights(t)

    def test_linear_on_a_comb(self):
        """A comb eight times longer takes about eight times as long to
        balance; pushing every light raise up the path prefix above it made
        that about fifty."""

        def best_of_three(tree):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                balance_weights(tree)
                times.append(time.perf_counter() - t0)
            return min(times)

        short, long = comb(1000), comb(8000)
        assert best_of_three(long) / best_of_three(short) < 20

    # two_stack_tree: root 0 has children 1, 2, 6 (weights 1, 4, 1; heavy 2),
    # node 2 has children 3, 4, 5 (weights 2, 1, 1; heavy 3)
    @pytest.mark.parametrize("changes,witness,message", [
        pytest.param({1: 2}, 0, "not the sum", id="sum"),
        pytest.param({1: 2, 6: 3, 0: 9}, 0, "unequal", id="unequal_lights"),
        pytest.param({4: 3, 5: 3, 2: 8, 0: 10}, 2, "lighter", id="heavy_lighter"),
        # sums and lights consistent, but no positive weight for build_flat
        pytest.param({1: 0, 6: 0, 0: 4}, 1, "weight < 1", id="nonpositive_leaf"),
    ])
    def test_check_balanced_rejects(self, two_stack_tree, changes, witness, message):
        wt = balance_weights(two_stack_tree)
        assert wt.weight == [6, 1, 4, 2, 1, 1, 1]
        bad = list(wt.weight)
        for node, weight in changes.items():
            bad[node] = weight
        broken = dataclasses.replace(wt, weight=bad)
        with pytest.raises(StageInvariantError, match=message) as info:
            check_balanced(broken)
        assert info.value.stage == "balance"
        assert info.value.witness == witness


class TestGenerators:
    def test_random_deterministic(self):
        a = gen_tree("random", 3, 20, seed=9)
        b = gen_tree("random", 3, 20, seed=9)
        c = gen_tree("random", 3, 20, seed=10)
        assert to_nested(a) == to_nested(b)
        assert to_nested(a) != to_nested(c)

    def test_serpentine_single_path(self):
        t = gen_tree("serpentine", 3, 5)
        assert t.interior_count == 5
        assert balance_weights(t).heavy_child == {v: 0 for v in t.interior_ids}

    def test_balanced_rounds_counts(self):
        for d, rounds in [(3, 2), (3, 3), (4, 2)]:
            t = gen_tree("balanced_rounds", d, rounds)
            assert t.leaf_count == d**rounds
            assert t.interior_count == (d**rounds - 1) // (d - 1)

    def test_size_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_tree("random", 3, 0)

    @pytest.mark.parametrize("args,message", [
        ((5.5,), "size must be an integer >= 1, got 5.5"),
        ((5, "x"), "seed must be an integer, got 'x'"),
        ((5, 1.0), "seed must be an integer, got 1.0"),
    ])
    def test_non_int_arguments_rejected(self, args, message):
        with pytest.raises(InvalidInputError) as info:
            gen_tree("random", 3, *args)
        assert str(info.value) == message

    def test_unknown_shape(self):
        with pytest.raises(InvalidInputError):
            gen_tree("mystery", 3, 3)


OCTAHEDRON = [
    (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 4), (4, 3), (3, 5), (5, 2),
]


class TestGraphs:
    def test_k4_round_trip(self, tet_tree):
        g = graph_from_tree(tet_tree)
        assert g.n == 4
        assert len(g.edges()) == 6
        t = tree_from_graph(g, (0, 1, 2))
        assert to_nested(t) == [None, None, None]

    def test_edge_counts_match_ridges(self):
        for d, size, seed in [(3, 12, 0), (4, 8, 1)]:
            t = gen_tree("random", d, size, seed)
            g = graph_from_tree(t)
            assert g.n == t.n_vertices
            if d == 3:
                # planar triangulation: E = 3V - 6
                assert len(g.edges()) == 3 * g.n - 6

    @pytest.mark.parametrize("shape", ["random", "serpentine", "balanced_rounds"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_exact_recovery(self, shape, d):
        # both readers rebuild the very table: same ids, same child order
        t = gen_tree(shape, d, 2 if shape == "balanced_rounds" else 15, seed=d)
        assert_preorder(t)
        assert tree_from_graph(graph_from_tree(t), tuple(range(d))) == t
        assert tree_from_nested(d, to_nested(t)) == t
        g, base = relabelled_graph(t, d)
        assert tree_from_graph(g, base) == t

    def test_recover_and_rebuild(self):
        for seed in range(4):
            t = gen_tree("random", 3, 10, seed)
            g = graph_from_tree(t)
            t2 = tree_from_graph(g, (0, 1, 2))
            g2 = graph_from_tree(t2)
            assert g2.n == g.n
            assert sorted(map(len, g2.adjacency)) == sorted(map(len, g.adjacency))

    @pytest.mark.parametrize("shape", ["random", "serpentine"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_walk_matches_the_scan(self, shape, d):
        # the forward walk gives the tree the peel-and-replay scan gives,
        # or the same message, on stacked graphs and on graphs 1-3 edge
        # flips away from one
        def outcome(recover, g, base):
            try:
                return recover(g, base)
            except InvalidInputError as exc:
                return str(exc)

        rng = random.Random(d)
        for seed in range(5):
            g, base = relabelled_graph(gen_tree(shape, d, 60, seed), seed)
            assert tree_from_graph(g, base) == reference_tree_from_graph(g, base)
            # a base that is no facet: both reject it with the same message
            other = base[1:] + (min(set(range(g.n)) - set(base)),)
            rejected = outcome(tree_from_graph, g, other)
            assert isinstance(rejected, str)
            assert rejected == outcome(reference_tree_from_graph, g, other)
            for flips in (1, 2, 3):
                adj = [set(a) for a in g.adjacency]
                for _ in range(flips):
                    u, v = rng.sample(range(g.n), 2)
                    adj[u] ^= {v}
                    adj[v] ^= {u}
                flipped = PolytopeGraph(g.n, adj)
                assert outcome(tree_from_graph, flipped, base) == outcome(
                    reference_tree_from_graph, flipped, base
                )

    def test_deep_serpentine_round_trip(self):
        # a chain of 19997 stackings: the walk's stack is explicit
        t = gen_tree("serpentine", 3, 19997, 0)
        g = graph_from_tree(t)
        assert tree_from_graph(g, (0, 1, 2)) == t
        # over base (2, 1, 0) the chain runs through child 2; hubs 2 and 1
        # stay in every facet, so the walk must intersect from the smallest
        # adjacency set, or each node costs O(n)
        mirrored: list[tuple[int, ...]] = []
        for v in range(0, 3 * 19997, 3):
            mirrored += [(v + 1, v + 2, v + 3), (), ()]
        start = time.perf_counter()
        assert tree_from_graph(g, (2, 1, 0)) == TreeRep(3, mirrored + [()])
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("shape", ["random", "serpentine", "balanced_rounds"])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_find_facet_is_the_least_reference_facet(self, shape, d):
        # held against facets found without find_facet's rule: Tutte's
        # non-separating triangles at d = 3, the tree's own layout at any d
        for seed in range(4):
            t = gen_tree(shape, d, 2 if shape == "balanced_rounds" else 8 + 9 * seed, seed)
            g, _ = relabelled_graph(t, seed)
            facets = tree_facets(t, relabelling(g.n, seed))
            if d == 3:
                assert nonseparating_triangles(g) == facets
            assert find_facet(g) == min(facets)

    def test_find_facet_rejects_non_stacked(self):
        # the octahedron has the edge count of a stacked 3-polytope, 3n - 6,
        # but its triangles have no common neighbour; with one edge more
        # no dimension fits its count
        octahedron = parse_graph(json.dumps({"n": 6, "edges": OCTAHEDRON}))
        with pytest.raises(InvalidInputError, match="^graph has no facet"):
            find_facet(octahedron)
        more = parse_graph(json.dumps({"n": 6, "edges": [*OCTAHEDRON, (0, 1)]}))
        with pytest.raises(InvalidInputError, match="^13 edges on 6 vertices"):
            find_facet(more)

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_complete_graph_is_the_simplex(self, n):
        # K_n has (n-1) n - (n-1) n / 2 edges: the (n-1)-simplex, one stacking
        edges = [[u, v] for u in range(n) for v in range(u + 1, n)]
        g = parse_graph(json.dumps({"n": n, "edges": edges}))
        assert find_facet(g) == tuple(range(n - 1))
        assert tree_from_graph(g) == TreeRep(n - 1, [tuple(range(1, n))] + [()] * (n - 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_below_3_rejected(self, n):
        # a vertex, an edge, a triangle: the simplices of dimension 0 to 2
        edges = [[u, v] for u in range(n) for v in range(u + 1, n)]
        with pytest.raises(InvalidInputError, match=f"^{len(edges)} edges on {n} vertices"):
            find_facet(parse_graph(json.dumps({"n": n, "edges": edges})))

    def test_rejects_non_stacked(self):
        # octahedron: 4-regular, no degree-3 vertex to peel
        g = parse_graph(json.dumps({"n": 6, "edges": OCTAHEDRON}))
        with pytest.raises(InvalidInputError):
            tree_from_graph(g, (0, 2, 4))

    def test_rejects_wrong_base(self):
        b3 = gen_lowerbound_graph("b3")
        # the original tetrahedron's triangles are no longer faces
        with pytest.raises(InvalidInputError):
            tree_from_graph(b3, (0, 1, 2))

    def test_parse_graph_errors(self):
        with pytest.raises(InvalidInputError):
            parse_graph('{"edges": []}')
        with pytest.raises(InvalidInputError):
            parse_graph('{"n": 3, "edges": [[0, 3]]}')

    @pytest.mark.parametrize("bad", [[0, 4], [1, 1], [0, True], [0.0, 1.0], [0, 1, 2]])
    def test_bad_edge_among_enough(self, bad):
        # six edges for n = 4 pass the edge count, so the edge itself is checked
        edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], bad]
        with pytest.raises(InvalidInputError, match="bad edge"):
            parse_graph(json.dumps({"n": 4, "edges": edges}))

    def test_too_few_edges_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="at least 599994"):
                parse_graph('{"n": 200000, "edges": []}')
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# the generator runs pinned below, (size, seed) per shape; balanced_rounds
# makes d^rounds leaves, so it stops at 3 rounds
PINNED_RUNS = {
    "random": [(size, seed) for size in (1, 9, 40) for seed in (0, 1, 2)],
    "serpentine": [(size, 0) for size in (1, 5, 40)],
    "balanced_rounds": [(rounds, 0) for rounds in (1, 2, 3)],
}
# sha256 of the runs' child tables (json.dumps, one line each) and of their
# graphs' to_json, recorded before the tree builders shared one walk
PINNED_HASHES = {
    ("random", 3): (
        "354a07f4776053dfcfcbb9fdd67552e471b50df74fef2204713c1761b5f0a12f",
        "c47e5fc6094661a1ae1a3b51d7ac9fd87abf1ddbc3c1676bb1955cb870301310",
    ),
    ("random", 4): (
        "4bc81dd1b4d5b51f14c85e625de34cc748b38a98d1c6f847557bde763ebd2608",
        "4e5c33459a6ad68568c6898b32096ac269f423172bee2fbea6c4ba42a381ad94",
    ),
    ("random", 5): (
        "caa5b989fe407237e2718455fe2f74ebddbacbdae37e4434e5f5355da07691fa",
        "432e93bcfe32e6ec5ad3d864ecaca3a133071f256afbb79485d126f2d9f6ae74",
    ),
    ("random", 6): (
        "84b299e5982ad9db5450d115121b860454595014097de8940c46b59dd6b830a5",
        "232cb64c275396593497815dedd2a720bf4c50562a79a7c59bf974879e6dd71c",
    ),
    ("serpentine", 3): (
        "58d2fbb3e6b03a87d182477315fb89e3c87f12ddbcef44939872ef55a4bf91d9",
        "a6524f7aa8429179e98488f30f6fd9f678ff208e69d4c9b1c0843f747d671e34",
    ),
    ("serpentine", 4): (
        "c51b6aa18de9cd1ab9f12fb2297e5d11eb15dffb4d5a2a3bb96d4e625e3c0a74",
        "947631f4e9d2b5adf29aff3c896e2f4f2116d99e50a42d82c90054872bb4758d",
    ),
    ("serpentine", 5): (
        "7f6ad6745935d959de1e32a20e0f02d760b1e075f1807cf2a7614f18ed96d24d",
        "2b3a423124d7c492ed60b6ae3a04a230183ba4bf8fc0ccfa4e21d5c340790cf9",
    ),
    ("serpentine", 6): (
        "36456f3a423f9415cc30c084619fa82cad34a89d1268c98ab0d32932ae05f402",
        "98c1d4e83f1603a992546ad3531ba817beed821928547130c4fd7f91000bd22e",
    ),
    ("balanced_rounds", 3): (
        "293d8bca9a4513e8418fa23aafa73e5fda767d9862464690a1c7c4ac63baadc7",
        "ee48fa999490893e8d570f3e5c02f17dc85f69a47f8d4f4bed8c79f6147ece47",
    ),
    ("balanced_rounds", 4): (
        "58600ebec7ebcf20f9ccee143bae99511e38d7c1aa1145818c4d8945fa1f7534",
        "90a16a44a5fa9f230815217bc952807d955d4c04dd77802789727402492e1c1d",
    ),
    ("balanced_rounds", 5): (
        "278be3e29e901cf6c0e684f0745f61f78ab31fc953897f3ef7cc96e250bffd3b",
        "9d52d280f781bb884e48ce5cd104dd3aa62852db59651b7a09d83a4301e6f39b",
    ),
    ("balanced_rounds", 6): (
        "7f1302bd36a85f9c149ccace738551e5fe5ffd2c2551e2f19236ad2de9575067",
        "eea54125187d35197ee6876e47a0da0e94b83f54b1dd2d9225f73105d4887406",
    ),
}


class TestPinnedOutputs:
    """The generators and graph builders, byte for byte: child ids, child
    order, and each graph's edge order in its JSON."""

    @pytest.mark.parametrize("shape,d", PINNED_HASHES)
    def test_trees_and_graphs(self, shape, d):
        trees = [gen_tree(shape, d, size, seed) for size, seed in PINNED_RUNS[shape]]
        graphs = [graph_from_tree(t) for t in trees]
        tree_hash, graph_hash = PINNED_HASHES[shape, d]
        assert sha256_lines(json.dumps(t.children) for t in trees) == tree_hash
        assert sha256_lines(g.to_json() for g in graphs) == graph_hash
        # each graph's least facet is its tree's base: the walk gives the tree back
        assert [tree_from_graph(g) for g in graphs] == trees

    def test_lowerbound_graphs(self):
        graphs = [gen_lowerbound_graph("b3")]
        graphs += [gen_lowerbound_graph("gamma", n) for n in range(36, 361, 36)]
        assert sha256_lines(g.to_json() for g in graphs) == (
            "e23947600f5460204ac34c00bf1093cc5d6c7f0d6e25ba258dbfd4b600a57ffa"
        )
        assert sha256_lines(json.dumps(tree_from_graph(g).children) for g in graphs) == (
            "d90fb87473926315b15b966dbc58b344c018dbe89243a96a82a4cd2ddd86d3a5"
        )


class TestLowerBoundGraphs:
    def test_b3_shape(self):
        g = gen_lowerbound_graph("b3")
        assert g.n == 20
        assert len(g.edges()) == 54
        # Euler for a planar triangulation skeleton
        assert len(g.edges()) - g.n + 2 == 36
        assert sum(1 for a in g.adjacency if len(a) == 3) == 12

    def test_b3_recoverable(self):
        g = gen_lowerbound_graph("b3")
        base = find_facet(g)
        t = tree_from_graph(g, base)
        assert t.n_vertices == 20
        assert t.leaf_count == 35  # 36 facets including the base

    def test_gamma_vertex_count(self):
        for m in (1, 2, 3):
            g = gen_lowerbound_graph("gamma", 36 * m)
            assert g.n == 36 * m
            assert len(g.edges()) == 3 * g.n - 6

    def test_b3_takes_n_0_or_20_only(self):
        assert gen_lowerbound_graph("b3", 20).to_json() == gen_lowerbound_graph("b3").to_json()
        for n in (100, 19, 21, -20, 36, "20", 20.0, True):
            with pytest.raises(InvalidInputError, match="b3 has 20 vertices"):
                gen_lowerbound_graph("b3", n)

    def test_gamma_rejects_bad_n(self):
        for n in (0, 35, 37, -36, "72", 72.0):
            with pytest.raises(InvalidInputError):
                gen_lowerbound_graph("gamma", n)
