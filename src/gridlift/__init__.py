"""Exact integer-coordinate realizations of stacked polytopes.

Pipeline: balance face weights on the stacking tree, embed the subdivision
flat over the rationals, lift to a convex height function, snap to a grid,
and scale to integers whose size is polynomial in the vertex count. A
two-route verifier certifies every output from its final coordinates.
"""

from .errors import (
    GeometryError,
    GridLiftError,
    InvalidInputError,
    StageInvariantError,
)
from .exact import (
    bracket,
    creasing,
    stress_of_ridge,
)
from .facets import BASE_FACET_KEY, Realization, TreeRep
from .flat import FlatComplex, base_simplex, build_flat
from .lifting import (
    adjusted_shifts,
    build_lifted,
    check_lift_bounds,
    direct_stresses,
    incremental_stresses,
)
from .pipeline import PipelineReport, realize_graph, run_pipeline
from .rounding import GridParams, grid_params, perturb_flat, round_and_scale
from .serialize import (
    emit_off,
    realization_from_json,
    realization_to_json,
    report_to_json,
)
from .trees import (
    PolytopeGraph,
    WeightedTree,
    balance_weights,
    check_balanced,
    find_facet,
    gen_lowerbound_graph,
    gen_tree,
    graph_from_tree,
    parse_graph,
    parse_tree,
    tree_from_graph,
    tree_from_nested,
)
from .verify import (
    Certificate,
    make_certificate,
    verify_bounds,
    verify_combinatorics,
    verify_convexity_exhaustive,
    verify_convexity_global,
    verify_convexity_stress,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_FACET_KEY",
    "Certificate",
    "FlatComplex",
    "GeometryError",
    "GridLiftError",
    "GridParams",
    "InvalidInputError",
    "PipelineReport",
    "PolytopeGraph",
    "Realization",
    "StageInvariantError",
    "TreeRep",
    "WeightedTree",
    "adjusted_shifts",
    "balance_weights",
    "base_simplex",
    "bracket",
    "build_flat",
    "build_lifted",
    "check_balanced",
    "check_lift_bounds",
    "creasing",
    "direct_stresses",
    "emit_off",
    "find_facet",
    "gen_lowerbound_graph",
    "gen_tree",
    "graph_from_tree",
    "grid_params",
    "incremental_stresses",
    "make_certificate",
    "parse_graph",
    "parse_tree",
    "perturb_flat",
    "realization_from_json",
    "realization_to_json",
    "realize_graph",
    "report_to_json",
    "round_and_scale",
    "run_pipeline",
    "stress_of_ridge",
    "tree_from_graph",
    "tree_from_nested",
    "verify_bounds",
    "verify_combinatorics",
    "verify_convexity_exhaustive",
    "verify_convexity_global",
    "verify_convexity_stress",
]
