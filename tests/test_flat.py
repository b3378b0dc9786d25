import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import StageInvariantError, gen_tree, pipeline, run_pipeline
from gridlift.exact import bracket
from gridlift.facets import BASE_FACET_KEY, TreeRep
from gridlift.flat import base_simplex, build_flat, stacked_column
from gridlift.trees import WeightedTree, balance_weights
from reference import flat_points, homogeneous_row, point, real_brackets, reference_flat_points

F = Fraction


class TestBaseSimplex:
    def test_d3_r3(self):
        coords, L = base_simplex(3, 3)
        assert L == 2
        assert coords == [(1, 0, 0), (1, 2, 0), (1, 0, 2)]
        assert bracket([point(c) for c in coords]) == 4

    def test_d3_r4(self):
        _, L = base_simplex(3, 4)
        assert L == 2

    def test_d4_r8(self):
        coords, L = base_simplex(4, 8)
        assert L == 2
        assert bracket([point(c) for c in coords]) == 8

    def test_positive_orientation_all_dims(self):
        for d in range(3, 8):
            for R in (3, 5, 17):
                coords, L = base_simplex(d, R)
                assert all(c[0] == 1 for c in coords)
                assert bracket([point(c) for c in coords]) == L ** (d - 1)
                # L is the least grid scale with L^(d-1) >= R, so lam >= 1
                assert (L - 1) ** (d - 1) < R <= L ** (d - 1)


class TestPlacement:
    def test_weighted_mean(self):
        facet = [(1, 0, 0), (1, 2, 0), (1, 0, 2)]
        assert stacked_column(facet, [2, 1, 1], 4) == (2, 1, 1)  # (1/2, 1/2)

    def test_uniform_is_centroid(self):
        facet = [(1, 0, 0), (1, 3, 0), (1, 0, 3)]
        assert stacked_column(facet, [1, 1, 1], 3) == (1, 1, 1)

    def test_mixed_denominators_reduce(self):
        # (1/2, 0), (0, 1/3), (0, 0) with equal weights: (1/6, 1/9)
        facet = [(2, 1, 0), (3, 0, 1), (1, 0, 0)]
        assert stacked_column(facet, [1, 1, 1], 3) == (18, 3, 2)
        # a common factor of the sum and its denominator is divided out
        assert stacked_column([(1, 0, 0), (1, 2, 0), (1, 0, 4)], [2, 2, 2], 6) == (
            3, 2, 4
        )


class TestPlacementMatchesReference:
    """The integer placement against the Fraction placement it replaced."""

    @given(
        shape=st.sampled_from(["random", "serpentine"]),
        d=st.integers(3, 7),
        size=st.integers(1, 25),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_vertex(self, shape, d, size, seed):
        wt = balance_weights(gen_tree(shape, d, size, seed))
        columns = build_flat(wt).coords
        expected = reference_flat_points(wt)
        assert len(columns) == len(expected)
        for column, p in zip(columns, expected):
            assert point(column) == p
            # lowest terms over a positive denominator
            assert column == homogeneous_row(p)


class TestTetFlat:
    def test_coords(self, tet_flat):
        assert tet_flat.coords == [
            (1, 0, 0),
            (1, 2, 0),
            (1, 0, 2),
            (3, 2, 2),  # (2/3, 2/3)
        ]

    def test_layout(self, tet_flat):
        assert tet_flat.facet_table == {
            BASE_FACET_KEY: (0, 1, 2), 1: (3, 1, 2), 2: (0, 3, 2), 3: (0, 1, 3)
        }
        assert list(tet_flat.facet_table) == [BASE_FACET_KEY, 1, 2, 3]
        assert tet_flat.node_facets == {0: (0, 1, 2), 1: (3, 1, 2), 2: (0, 3, 2), 3: (0, 1, 3)}

    def test_brackets(self, tet_flat):
        # R_eff * weight under the scale R = 3
        assert tet_flat.node_brackets == {0: 12, 1: 4, 2: 4, 3: 4}
        assert real_brackets(tet_flat) == {0: 4, 1: F(4, 3), 2: F(4, 3), 3: F(4, 3)}

    def test_scale(self, tet_flat):
        assert tet_flat.L == 2
        assert tet_flat.bracket_scale == 3
        assert tet_flat.R_eff == 4

    def test_ridges(self, tet_flat):
        assert len(tet_flat.ridge_adjacency) == 6
        # base (0, 1, 2) less vertex 2 at position 2, and leaf 3's facet
        # (0, 1, 3) less vertex 3 at position 2
        assert tet_flat.ridge_adjacency[(0, 1)] == (BASE_FACET_KEY, 2, 3, 2)

    def test_ridge_in_one_facet_is_a_flat_stage_error(self):
        # a root with two children, which check_tree rejects: the base
        # ridge opposite vertex 2 has no leaf beside the base
        wt = WeightedTree(TreeRep(3, [(1, 2), (), ()]), [2, 1, 1], {0: 0})
        with pytest.raises(StageInvariantError) as info:
            build_flat(wt)
        assert info.value.stage == "flat"
        assert info.value.message == "ridge (0, 1) lies in 1 facets"
        assert info.value.witness == (0, 1)

    def test_swapped_leaf_facet_is_a_rounding_stage_error(self, monkeypatch):
        # a leaf's node facet with its last two vertices swapped keeps its
        # ridges, so the flat and lift stages pass it, but its grid bracket
        # changes sign: the rounding stage's volume check names the node
        tree = gen_tree("random", 4, 3, 0)
        leaf = tree.leaf_ids[0]

        def swapped(wt):
            flat = build_flat(wt)
            *head, a, b = flat.node_facets[leaf]
            facets = {**flat.node_facets, leaf: (*head, b, a)}
            return dataclasses.replace(flat, node_facets=facets)

        monkeypatch.setattr(pipeline, "build_flat", swapped)
        with pytest.raises(StageInvariantError) as info:
            run_pipeline(tree)
        assert info.value.stage == "rounding"
        assert info.value.message == f"facet of node {leaf} flipped or collapsed"
        assert info.value.witness == leaf


class TestTwoStackFlat:
    def test_stacked_points(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        assert flat.L == 3
        assert flat.bracket_scale == 6  # lam = 9/6
        assert flat.coords[3] == (2, 4, 1)  # (2, 1/2)
        assert flat.coords[4] == (8, 4, 7)  # (1/2, 7/8)

    def test_second_point_inside_parent_facet(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        # positive bracket with each facet edge of its containing facet
        facet = flat.node_facets[2]
        points = flat_points(flat)
        p = points[4]
        for j in range(3):
            edge = [points[facet[i]] for i in range(3) if i != j]
            assert bracket(edge + [p]) != 0


class TestTilingInvariants:
    @pytest.mark.parametrize(
        "d,size,seed", [(3, 15, 0), (3, 16, 7), (4, 10, 1), (5, 7, 2), (6, 5, 3)]
    )
    def test_partition_of_volume(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        assert flat.bracket_scale == wt.root_weight
        for v in tree.interior_ids:
            children = tree.children[v]
            assert flat.node_brackets[v] == sum(
                flat.node_brackets[c] for c in children
            )
        total = sum(real_brackets(flat)[leaf] for leaf in tree.leaf_ids)
        assert total == flat.L ** (d - 1)
        for node, b in flat.node_brackets.items():
            assert type(b) is int
            assert b == flat.R_eff * wt.weight[node]
            assert b > 0

    @pytest.mark.parametrize("d,size,seed", [(3, 12, 4), (4, 8, 5)])
    def test_brackets_match_coordinates(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        points = flat_points(flat)
        brackets = real_brackets(flat)
        for node, facet in flat.node_facets.items():
            assert bracket([points[u] for u in facet]) == brackets[node]

    def test_ridge_regularity(self):
        tree = gen_tree("random", 3, 20, 11)
        flat = build_flat(balance_weights(tree))
        n_facets = len(flat.facet_table)
        assert len(flat.ridge_adjacency) == 3 * n_facets // 2
