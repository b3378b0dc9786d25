"""Golden witness lists of failing certificates, in the order given.

`tests/data/golden_witnesses.json` holds, per case, the exact
`make_certificate(...).witnesses` of a realization with one vertex
corrupted: lowered to half its height, moved sideways by a third of the
first coordinate's span, or sunk to height zero. The other tests hold the
routes to their references by verdict, so only these lists pin which
witnesses a failing certificate prints and in what order. After a change
that reorders them on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden_witnesses.py --write

and say in the change log why the witnesses moved.
"""

import dataclasses
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from gridlift import gen_tree, make_certificate, run_pipeline

DATA = Path(__file__).parent / "data" / "golden_witnesses.json"
DIMS = (3, 4, 5, 7)
HOW = ("lowered", "sideways", "sunk")
CASES = [f"d{d}-{how}" for d in DIMS for how in HOW]


@cache
def realization(d):
    return run_pipeline(gen_tree("random", d, 12, 1))[0]


def corrupted(name):
    """The case's realization with its middle vertex moved."""
    dim, how = name.split("-")
    r = realization(int(dim[1:]))
    coords = [list(p) for p in r.coords]
    p = coords[len(coords) // 2]
    if how == "lowered":
        p[-1] //= 2
    elif how == "sideways":
        xs = [q[0] for q in r.coords]
        p[0] += (max(xs) - min(xs)) // 3
    else:
        p[-1] = 0
    return dataclasses.replace(r, coords=[tuple(q) for q in coords])


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_cases_match_data(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_witnesses_unchanged(golden, name):
    certificate = make_certificate(corrupted(name))
    assert not certificate.ok
    assert certificate.witnesses == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_witnesses.py --write")
    doc = {name: make_certificate(corrupted(name)).witnesses for name in CASES}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
