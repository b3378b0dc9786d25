"""Exact integer-coordinate realizations of stacked polytopes.

Pipeline: balance face weights on the stacking tree, embed the subdivision
flat over the rationals, lift to a convex height function, snap to a grid,
and scale to integers whose size is polynomial in the vertex count. A
two-route verifier certifies every output from its final coordinates.

The package exports the entry points and the types and errors they return
or raise; each stage's functions are imported from their own module.
"""

from .errors import (
    GeometryError,
    GridLiftError,
    InvalidInputError,
    StageInvariantError,
)
from .facets import Realization, TreeRep
from .pipeline import PipelineReport, realize_graph, run_pipeline
from .serialize import (
    emit_off,
    realization_from_json,
    realization_to_json,
    report_to_json,
)
from .trees import (
    PolytopeGraph,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    parse_tree,
    tree_from_graph,
)
from .verify import Certificate, make_certificate

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "GeometryError",
    "GridLiftError",
    "InvalidInputError",
    "PipelineReport",
    "PolytopeGraph",
    "Realization",
    "StageInvariantError",
    "TreeRep",
    "emit_off",
    "gen_lowerbound_graph",
    "gen_tree",
    "graph_from_tree",
    "make_certificate",
    "parse_tree",
    "realization_from_json",
    "realization_to_json",
    "realize_graph",
    "report_to_json",
    "run_pipeline",
    "tree_from_graph",
]
