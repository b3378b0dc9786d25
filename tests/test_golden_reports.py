"""Golden hashes of the timing-free reports, realizations and OFF meshes.

`tests/data/golden_reports.json` holds, per case, the SHA-256 of
`report_to_json(report, include_timing=False)`, of `realization_to_json`
and, for d = 3, of `emit_off`. A change that is meant to keep behaviour
must keep these bytes. After a change that alters them on purpose,
regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and say in the change log why the bytes moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gridlift import (
    emit_off,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    realization_to_json,
    realize_graph,
    report_to_json,
    run_pipeline,
)

DATA = Path(__file__).parent / "data" / "golden_reports.json"

# name -> ("tree", gen_tree args) or ("graph", graph builder)
CASES = {
    "tree-d3-random-n6": ("tree", ("random", 3, 3, 1)),
    "tree-d3-random-n20": ("tree", ("random", 3, 17, 3)),
    "tree-d3-random-n60": ("tree", ("random", 3, 57, 11)),
    "tree-d3-serpentine-n40": ("tree", ("serpentine", 3, 37, 0)),
    "tree-d3-rounds-2": ("tree", ("balanced_rounds", 3, 2, 0)),
    "tree-d4-random-n20": ("tree", ("random", 4, 16, 7)),
    "tree-d4-serpentine-n15": ("tree", ("serpentine", 4, 11, 0)),
    "tree-d5-random-n15": ("tree", ("random", 5, 10, 9)),
    "tree-d6-random-n40": ("tree", ("random", 6, 34, 13)),
    "tree-d7-random-n30": ("tree", ("random", 7, 23, 17)),
    "tree-d8-random-n20": ("tree", ("random", 8, 12, 19)),
    "tree-d3-serpentine-n300": ("tree", ("serpentine", 3, 297, 0)),
    "graph-b3": ("graph", lambda: gen_lowerbound_graph("b3")),
    "graph-gamma-36": ("graph", lambda: gen_lowerbound_graph("gamma", 36)),
    "graph-d3-random-n14": (
        "graph",
        lambda: graph_from_tree(gen_tree("random", 3, 11, 21)),
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hashes(name: str) -> dict:
    kind, spec = CASES[name]
    if kind == "tree":
        realization, report = run_pipeline(gen_tree(*spec))
    else:
        realization, report, _ = realize_graph(spec())
    out = {
        "report": sha256(report_to_json(report, include_timing=False)),
        "realization": sha256(realization_to_json(realization)),
    }
    if realization.d == 3:
        out["off"] = sha256(emit_off(realization))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_cases_match_data(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_unchanged(golden, name):
    assert hashes(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    DATA.parent.mkdir(exist_ok=True)
    doc = {name: hashes(name) for name in sorted(CASES)}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
