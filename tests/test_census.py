"""Census of small stacked polytopes: every ordered d-ary tree, not a sample.

An ordered d-ary tree with k interior nodes (stackings) is one stacked
d-polytope built over an ordered base facet. There are Fuss-Catalan many,
C(dk, k) / ((d-1) k + 1), so all of them can be run for small k.
"""

import functools
import itertools
import json
from math import comb

import pytest

from gridlift import (
    graph_from_tree,
    realize_graph,
    report_to_json,
    run_pipeline,
)
from gridlift.flat import build_flat
from gridlift.lifting import (
    adjusted_shifts,
    direct_stresses,
    incremental_stresses,
    lift_heights,
)
from gridlift.rounding import perturb_flat
from gridlift.trees import balance_weights, tree_from_nested, tree_to_json
from reference import (
    by_ridge,
    check_lifted_rows,
    check_ridge_tables,
    nonseparating_triangles,
    tree_facets,
)


def compositions(total: int, parts: int):
    """Every way to write total as an ordered sum of `parts` naturals."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


@functools.cache
def nested_trees(d: int, k: int) -> tuple:
    """Every ordered d-ary tree with k interior nodes, in the nested form
    (None for a leaf, a list of d children for an interior node)."""
    if k == 0:
        return (None,)
    return tuple(
        list(children)
        for sizes in compositions(k - 1, d)
        for children in itertools.product(*(nested_trees(d, s) for s in sizes))
    )


def all_trees(d: int, k: int):
    return [tree_from_nested(d, nested) for nested in nested_trees(d, k)]


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("k", range(6))
def test_enumeration_is_fuss_catalan(d, k):
    trees = nested_trees(d, k)
    assert len(trees) == comb(d * k, k) // ((d - 1) * k + 1)
    # all distinct, each with k stackings
    assert len({json.dumps(t) for t in trees}) == len(trees)
    if k:
        assert all(tree_from_nested(d, t).interior_count == k for t in trees)


def coordinate_maxima(realization):
    coords = realization.coords
    return max(c for p in coords for c in p[:-1]), max(p[-1] for p in coords)


# 344 trees at d = 3 and 27 at d = 4
CENSUS = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 1), (4, 2), (4, 3)]


@pytest.mark.parametrize("d,k", CENSUS)
def test_every_tree_realizes_and_certifies(d, k):
    for tree in all_trees(d, k):
        realization, report = run_pipeline(tree)
        label = tree_to_json(tree)
        assert report.certificate.ok, label
        R_eff = report.weights["R_eff"]
        max_xy, max_z = coordinate_maxima(realization)
        assert 0 <= max_xy <= 10 * d * d * R_eff * R_eff, label
        assert 0 <= max_z <= 6 * R_eff**3, label
        _, again = run_pipeline(tree)
        assert report_to_json(again, include_timing=False) == report_to_json(
            report, include_timing=False
        ), label


@pytest.mark.parametrize("d,k", CENSUS)
def test_direct_stresses_equal_incremental(d, k):
    # the exact lift's and the relift's stresses from the hyperplane kernel,
    # against the stacking replay, by cross-multiplication; the lifted rows
    # are primitive, over the complex's columns, at the reference heights
    for tree in all_trees(d, k):
        flat = build_flat(balance_weights(tree))
        perturbed = perturb_flat(flat)
        for complex_ in (flat, perturbed):
            zeta = adjusted_shifts(complex_)
            rows = lift_heights(complex_, zeta)
            check_lifted_rows(complex_, zeta, rows)
            direct = direct_stresses(complex_, rows)
            incremental = incremental_stresses(complex_, zeta)
            assert by_ridge(complex_.ridge_adjacency, direct) == by_ridge(
                complex_.ridge_adjacency, incremental
            ), tree_to_json(tree)


# 9524 trees at d = 3, 1136 at d = 4 and 326 at d = 5
RIDGE_CENSUS = [(3, k) for k in range(1, 8)] + [(4, k) for k in range(1, 6)] + [
    (5, k) for k in range(1, 5)
]


@pytest.mark.parametrize("d,k", RIDGE_CENSUS)
def test_ridge_numbering_equals_keyed_tables(d, k):
    # the walk's ridge table against build_ridge_adjacency, and the replay
    # over ridge numbers against the replay keyed by sorted ridges, on the
    # exact and the perturbed complex
    for tree in all_trees(d, k):
        check_ridge_tables(build_flat(balance_weights(tree)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_graph_route_over_every_base_facet(k):
    for tree in all_trees(3, k):
        graph = graph_from_tree(tree)
        facets = nonseparating_triangles(graph)
        assert facets == tree_facets(tree)
        assert len(facets) == 2 * k + 2
        for facet in facets:
            realization, report, recovered = realize_graph(graph, base=facet)
            label = (tree_to_json(tree), facet)
            assert report.certificate.ok, label
            assert recovered.interior_count == k, label
            assert len(realization.coords) == k + 3, label
