from fractions import Fraction

import pytest

from gridlift import (
    BASE_FACET_KEY,
    InvalidInputError,
    StageInvariantError,
    balance_weights,
    base_simplex,
    bracket,
    build_flat,
    gen_tree,
)
from gridlift import flat
from gridlift.flat import place_stacked_vertex

F = Fraction


class TestBaseSimplex:
    def test_d3_r3(self):
        coords, L, lam = base_simplex(3, 3)
        assert L == 2
        assert lam == F(4, 3)
        assert coords == [(0, 0), (2, 0), (0, 2)]
        assert bracket(coords) == 4

    def test_d3_r4(self):
        coords, L, lam = base_simplex(3, 4)
        assert (L, lam) == (2, 1)

    def test_d4_r8(self):
        coords, L, lam = base_simplex(4, 8)
        assert (L, lam) == (2, 1)
        assert bracket(coords) == 8

    def test_positive_orientation_all_dims(self):
        for d in range(3, 8):
            for R in (3, 5, 17):
                coords, L, lam = base_simplex(d, R)
                assert bracket(coords) == L ** (d - 1)
                assert lam * R == L ** (d - 1)
                assert lam >= 1

    def test_rejects_small_weight(self):
        with pytest.raises(InvalidInputError):
            base_simplex(3, 2)

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
            base_simplex(2, 5)


class TestPlacement:
    def test_weighted_mean(self):
        facet = [(0, 0), (2, 0), (0, 2)]
        p = place_stacked_vertex(facet, [F(2), F(1), F(1)], F(4))
        assert p == (F(1, 2), F(1, 2))

    def test_uniform_is_centroid(self):
        facet = [(0, 0), (3, 0), (0, 3)]
        p = place_stacked_vertex(facet, [F(1)] * 3, F(3))
        assert p == (1, 1)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            place_stacked_vertex([(0, 0), (1, 0), (0, 1)], [F(1), F(1), F(1)], F(4))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            place_stacked_vertex([(0, 0), (1, 0), (0, 1)], [F(2), F(0), F(1)], F(3))


class TestTetFlat:
    def test_coords(self, tet_flat):
        assert tet_flat.coords == [
            (0, 0),
            (2, 0),
            (0, 2),
            (F(2, 3), F(2, 3)),
        ]

    def test_layout(self, tet_flat):
        assert tet_flat.base_facet == (0, 1, 2)
        assert tet_flat.facets == {1: (3, 1, 2), 2: (0, 3, 2), 3: (0, 1, 3)}
        assert tet_flat.stacked_vertex == {0: 3}

    def test_brackets(self, tet_flat):
        assert tet_flat.node_brackets[0] == 4
        for leaf in (1, 2, 3):
            assert tet_flat.node_brackets[leaf] == F(4, 3)

    def test_scale(self, tet_flat):
        assert tet_flat.L == 2
        assert tet_flat.lam == F(4, 3)
        assert tet_flat.R_eff == 4

    def test_ridges(self, tet_flat):
        assert len(tet_flat.ridge_adjacency) == 6
        assert tet_flat.ridge_adjacency[(0, 1)] == (BASE_FACET_KEY, 3)

    def test_open_surface_is_a_flat_stage_error(self, tet_weighted, monkeypatch):
        # the layout drops leaf 1's facet and repeats leaf 2's in its place
        original = flat.facet_layout

        def drop_leaf(tree):
            layout, stacked = original(tree)
            return {**layout, 1: layout[2]}, stacked

        monkeypatch.setattr(flat, "facet_layout", drop_leaf)
        with pytest.raises(StageInvariantError) as info:
            build_flat(tet_weighted)
        assert info.value.stage == "flat"
        assert info.value.message == "ridge (1, 2) lies in 1 facets"


class TestTwoStackFlat:
    def test_stacked_points(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        assert flat.L == 3
        assert flat.lam == F(3, 2)
        assert flat.coords[3] == (2, F(1, 2))
        assert flat.coords[4] == (F(1, 2), F(7, 8))

    def test_second_point_inside_parent_facet(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        # positive bracket with each facet edge of its containing facet
        facet = flat.node_facets[2]
        p = flat.coords[4]
        for j in range(3):
            edge = [flat.coords[facet[i]] for i in range(3) if i != j]
            assert bracket(edge + [p]) != 0


class TestTilingInvariants:
    @pytest.mark.parametrize(
        "d,size,seed", [(3, 15, 0), (3, 16, 7), (4, 10, 1), (5, 7, 2), (6, 5, 3)]
    )
    def test_partition_of_volume(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        lam = flat.lam
        for v in tree.interior_ids:
            children = tree.nodes[v].children
            assert flat.node_brackets[v] == sum(
                flat.node_brackets[c] for c in children
            )
        total = sum(flat.node_brackets[leaf] for leaf in tree.leaf_ids)
        assert total == flat.L ** (d - 1)
        for node, b in flat.node_brackets.items():
            assert b == lam * wt.weight[node]
            assert b > 0

    @pytest.mark.parametrize("d,size,seed", [(3, 12, 4), (4, 8, 5)])
    def test_brackets_match_coordinates(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        for node, facet in flat.node_facets.items():
            assert bracket([flat.coords[u] for u in facet]) == flat.node_brackets[node]

    def test_ridge_regularity(self):
        tree = gen_tree("random", 3, 20, 11)
        flat = build_flat(balance_weights(tree))
        n_facets = len(flat.facets) + 1
        assert len(flat.ridge_adjacency) == 3 * n_facets // 2
