"""Fixed input corpus of the gridlift benchmark, one list per workload.

Every instance is a generator call with explicit arguments, so the corpus
can be rebuilt from this file alone and its outputs checked against the
SHA-256 values in golden.json. The run's --seed only orders the instances
(see run.py); it never changes which inputs exist, because each input
needs a recorded golden hash.

The generator seeds of the random trees start at each workload's base
seed: 1 for the large d=3 trees (the seed the ROADMAP baseline timed),
5 for the d=5 trees and 1000 for the small graph batch.
"""

from __future__ import annotations

from dataclasses import dataclass

# (kind, args): "tree" -> gen_tree(*args);
# "tree_graph" -> graph_from_tree(gen_tree(*args));
# "lowerbound" -> gen_lowerbound_graph(*args).
Spec = tuple[str, tuple]

WORKLOADS: dict[str, list[Spec]] = {
    # n = 500: the all-pairs global oracle dominates verify and realize.
    # n = 1000 fits only two instances in a run, too few for a steady median
    # on a shared machine.
    "d3-random-large": [("tree", ("random", 3, 497, s)) for s in range(1, 7)],
    # d = 5, n = 150: lift and round dominate, about 30k brackets each.
    "d5-random-kernel": [("tree", ("random", 5, 145, s)) for s in range(5, 12)],
    # 100 small d = 3 graphs through realize_graph: per-call costs.
    "d3-graph-batch": (
        [("lowerbound", ("b3", 0))]
        + [("lowerbound", ("gamma", n)) for n in (36, 72, 180, 360)]
        + [
            ("tree_graph", ("random", 3, n - 3, 1000 + i))
            for i, n in enumerate(range(10, 65))
        ]
        + [("tree_graph", ("serpentine", 3, n - 3, 0)) for n in range(10, 130, 3)]
    ),
}


@dataclass
class Instance:
    key: str  # the generator call, which keys golden.json
    d: int
    n: int  # vertex count of the input
    tree: object = None  # TreeRep, for tree inputs
    graph: object = None  # PolytopeGraph, for graph inputs


def spec_key(spec: Spec) -> str:
    kind, args = spec
    return f"{kind}{args!r}"


def build(gl, specs: list[Spec]) -> list[Instance]:
    """Generate the inputs with the package's own generators."""
    out = []
    for spec in specs:
        kind, args = spec
        key = spec_key(spec)
        if kind == "tree":
            tree = gl.gen_tree(*args)
            out.append(Instance(key, tree.dim, tree.n_vertices, tree=tree))
        elif kind == "tree_graph":
            tree = gl.gen_tree(*args)
            graph = gl.graph_from_tree(tree)
            out.append(Instance(key, tree.dim, graph.n, graph=graph))
        elif kind == "lowerbound":
            graph = gl.gen_lowerbound_graph(*args)
            out.append(Instance(key, 3, graph.n, graph=graph))
        else:
            raise ValueError(f"unknown corpus entry kind {kind!r}")
    return out
