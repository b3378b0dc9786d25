import pytest

from gridlift import parse_tree, run_pipeline
from gridlift.flat import build_flat
from gridlift.lifting import build_lifted
from gridlift.trees import balance_weights

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
def tet_lifted(tet_flat):
    """Rows and checked stress extrema of the tetrahedron's exact lift."""
    return build_lifted(tet_flat)


@pytest.fixture(scope="session")
def tet_result(tet_tree):
    return run_pipeline(tet_tree)


@pytest.fixture(scope="session")
def two_stack_tree():
    return parse_tree(TWO_STACK_JSON)
