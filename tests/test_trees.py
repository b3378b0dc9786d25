import json
import math

import pytest

from gridlift import (
    InvalidInputError,
    StageInvariantError,
    balance_weights,
    check_balanced,
    find_facet,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    heavy_paths,
    parse_graph,
    parse_tree,
    tree_from_graph,
    tree_from_nested,
)
from gridlift.trees import facet_layout, subtree_sizes


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


class TestParsing:
    def test_tetrahedron(self, tet_tree):
        assert tet_tree.dim == 3
        assert tet_tree.interior_count == 1
        assert tet_tree.leaf_count == 3
        assert tet_tree.n_vertices == 4
        assert tet_tree.to_nested() == [None, None, None]

    def test_two_stack(self, two_stack_tree):
        assert two_stack_tree.interior_count == 2
        assert two_stack_tree.leaf_count == 5
        assert two_stack_tree.n_vertices == 5

    def test_round_trip_json(self, two_stack_tree):
        doc = json.loads(two_stack_tree.to_json())
        again = tree_from_nested(doc["dim"], doc["tree"])
        assert again.to_nested() == two_stack_tree.to_nested()

    def test_rejects_leaf_root(self):
        with pytest.raises(InvalidInputError):
            tree_from_nested(3, None)

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidInputError):
            tree_from_nested(3, [None, None])
        with pytest.raises(InvalidInputError):
            tree_from_nested(4, [None, None, None])

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
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


class TestHeavyPaths:
    def test_two_stack_heavy(self, two_stack_tree):
        sizes = subtree_sizes(two_stack_tree)
        assert sizes[0] == 7
        heavy, hier = heavy_paths(two_stack_tree)
        # second child (the interior one) is heavy at the root
        assert heavy[0] == 1
        assert len(hier.caterpillars) == 1
        cat = hier.caterpillars[0]
        assert cat.path[0] == 0
        assert len(cat.path) == 3  # root, inner node, one leaf

    def test_edge_partition(self):
        for seed in range(6):
            t = gen_tree("random", 3, 25, seed)
            heavy, hier = heavy_paths(t)
            seen = set()
            for cat in hier.caterpillars:
                for a, b in zip(cat.path, cat.path[1:]):
                    assert (a, b) not in seen
                    seen.add((a, b))
                for v, c in cat.light_children:
                    assert (v, c) not in seen
                    seen.add((v, c))
            n_edges = len(t.nodes) - 1
            assert len(seen) == n_edges

    def test_light_depth_bound(self):
        for d, size, seed in [(3, 40, 0), (3, 40, 1), (4, 20, 2), (5, 12, 3)]:
            t = gen_tree("random", d, size, seed)
            heavy, _ = heavy_paths(t)
            bound = math.floor(math.log2(t.n_vertices))
            for leaf in t.leaf_ids:
                light = 0
                v = leaf
                while v != t.root:
                    parent = t.nodes[v].parent
                    if t.nodes[parent].children[heavy[parent]] != v:
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

    def test_check_balanced_rejects(self, two_stack_tree):
        wt = balance_weights(two_stack_tree)
        bad = list(wt.weight)
        bad[1] += 1
        import dataclasses

        broken = dataclasses.replace(wt, weight=bad)
        with pytest.raises(StageInvariantError) as info:
            check_balanced(broken)
        assert info.value.stage == "balance"


class TestGenerators:
    def test_random_deterministic(self):
        a = gen_tree("random", 3, 20, seed=9)
        b = gen_tree("random", 3, 20, seed=9)
        c = gen_tree("random", 3, 20, seed=10)
        assert a.to_nested() == b.to_nested()
        assert a.to_nested() != c.to_nested()

    def test_serpentine_single_path(self):
        t = gen_tree("serpentine", 3, 5)
        assert t.interior_count == 5
        heavy, hier = heavy_paths(t)
        assert len(hier.caterpillars) == 1

    def test_balanced_rounds_counts(self):
        for d, rounds in [(3, 2), (3, 3), (4, 2)]:
            t = gen_tree("balanced_rounds", d, rounds)
            assert t.leaf_count == d**rounds
            assert t.interior_count == (d**rounds - 1) // (d - 1)

    def test_size_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_tree("random", 3, 0)

    def test_unknown_shape(self):
        with pytest.raises(InvalidInputError):
            gen_tree("mystery", 3, 3)


class TestGraphs:
    def test_k4_round_trip(self, tet_tree):
        g = graph_from_tree(tet_tree)
        assert g.n == 4
        assert g.edge_count() == 6
        t = tree_from_graph(g, 3, (0, 1, 2))
        assert t.to_nested() == [None, None, None]

    def test_edge_counts_match_ridges(self):
        for d, size, seed in [(3, 12, 0), (4, 8, 1)]:
            t = gen_tree("random", d, size, seed)
            g = graph_from_tree(t)
            assert g.n == t.n_vertices
            if d == 3:
                # planar triangulation: E = 3V - 6
                assert g.edge_count() == 3 * g.n - 6

    def test_recover_and_rebuild(self):
        for seed in range(4):
            t = gen_tree("random", 3, 10, seed)
            g = graph_from_tree(t)
            t2 = tree_from_graph(g, 3, (0, 1, 2))
            g2 = graph_from_tree(t2)
            assert g2.n == g.n
            assert sorted(map(len, g2.adjacency)) == sorted(map(len, g.adjacency))

    def test_rejects_non_stacked(self):
        # octahedron: 4-regular, no degree-3 vertex to peel
        edges = [
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (1, 3), (1, 4), (1, 5),
            (2, 4), (4, 3), (3, 5), (5, 2),
        ]
        g = parse_graph(json.dumps({"n": 6, "edges": edges}))
        with pytest.raises(InvalidInputError):
            tree_from_graph(g, 3, (0, 2, 4))

    def test_rejects_wrong_base(self):
        b3 = gen_lowerbound_graph("b3")
        # the original tetrahedron's triangles are no longer faces
        with pytest.raises(InvalidInputError):
            tree_from_graph(b3, 3, (0, 1, 2))

    def test_parse_graph_errors(self):
        with pytest.raises(InvalidInputError):
            parse_graph('{"edges": []}')
        with pytest.raises(InvalidInputError):
            parse_graph('{"n": 3, "edges": [[0, 3]]}')


class TestLowerBoundGraphs:
    def test_b3_shape(self):
        g = gen_lowerbound_graph("b3")
        assert g.n == 20
        assert g.edge_count() == 54
        # Euler for a planar triangulation skeleton
        assert g.edge_count() - g.n + 2 == 36
        assert sum(1 for a in g.adjacency if len(a) == 3) == 12

    def test_b3_recoverable(self):
        g = gen_lowerbound_graph("b3")
        base = find_facet(g, 3)
        t = tree_from_graph(g, 3, base)
        assert t.n_vertices == 20
        assert t.leaf_count == 35  # 36 facets including the base

    def test_gamma_vertex_count(self):
        for m in (1, 2, 3):
            g = gen_lowerbound_graph("gamma", 36 * m)
            assert g.n == 36 * m
            assert g.edge_count() == 3 * g.n - 6

    def test_gamma_rejects_bad_n(self):
        for n in (0, 35, 37, -36):
            with pytest.raises(InvalidInputError):
                gen_lowerbound_graph("gamma", n)
