import pytest

from gridlift import (
    balance_weights,
    build_flat,
    build_lifted,
    parse_tree,
    run_pipeline,
    vertical_shifts,
)

TET_JSON = '{"dim": 3, "tree": [null, null, null]}'
TWO_STACK_JSON = '{"dim": 3, "tree": [null, [null, null, null], null]}'


@pytest.fixture(scope="session")
def tet_tree():
    return parse_tree(TET_JSON)


@pytest.fixture(scope="session")
def tet_weighted(tet_tree):
    return balance_weights(tet_tree)


@pytest.fixture(scope="session")
def tet_flat(tet_weighted):
    return build_flat(tet_weighted)


@pytest.fixture(scope="session")
def tet_lifted(tet_flat, tet_weighted):
    """Heights, plan and stresses of the tetrahedron's exact lift."""
    zeta = vertical_shifts(tet_weighted, tet_flat.lam)
    return build_lifted(tet_flat, tet_weighted.tree, zeta)


@pytest.fixture(scope="session")
def tet_result(tet_tree):
    return run_pipeline(tet_tree)


@pytest.fixture(scope="session")
def two_stack_tree():
    return parse_tree(TWO_STACK_JSON)
