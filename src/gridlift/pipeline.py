"""End-to-end driver: tree (or graph) in, certified integer realization out.

Stage order is fixed: balance the face weights, embed flat over the
rationals, lift with the vertical shifts, gate the exact stresses, snap to
the coordinate grid, re-derive shifts on the perturbed complex, relift,
gate again, snap heights, scale to integers, then certify from the final
coordinates alone. Every stage keeps exact arithmetic; the report captures
the extrema each gate saw so a run is auditable after the fact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import StageInvariantError
from .flat import build_flat
from .lifting import build_lifted, check_lift_bounds
from .rounding import (
    Realization,
    adjusted_shifts,
    check_volume_ratios,
    grid_params,
    perturb_flat,
    round_and_scale,
)
from .trees import (
    PolytopeGraph,
    TreeRep,
    balance_weights,
    check_balanced,
    find_facet,
    tree_from_graph,
)
from .verify import Certificate, make_certificate


@dataclass
class PipelineReport:
    input: dict
    weights: dict
    grid: dict
    stages: dict
    output: dict
    certificate: Certificate
    monitor: dict
    timing: dict = field(default_factory=dict)


def _pow_log(n: int, base_exponent: float) -> float:
    # n ** log2(2d) and friends, for the size monitors
    return float(n) ** base_exponent


def run_pipeline(tree: TreeRep) -> tuple[Realization, PipelineReport]:
    timing: dict[str, float] = {}
    clock = time.perf_counter

    t = clock()
    wt = balance_weights(tree)
    check_balanced(wt)
    timing["balance"] = clock() - t

    t = clock()
    flat = build_flat(wt)
    timing["flat"] = clock() - t

    t = clock()
    # the exact lift is only gated: rounding starts again from the flat
    # complex, so its heights and stresses are not kept past this point
    lift_info = check_lift_bounds(build_lifted(flat, wt), flat.R_eff)
    timing["lift"] = clock() - t

    t = clock()
    params = grid_params(tree.dim, flat.L, flat.R_eff)
    perturbed = perturb_flat(flat, params.alpha)
    ratio_lo, ratio_hi = check_volume_ratios(flat, perturbed, params)
    zeta_adj = adjusted_shifts(perturbed, tree)
    realization, round_info = round_and_scale(perturbed, tree, zeta_adj, params)
    timing["round"] = clock() - t

    t = clock()
    cert = make_certificate(realization, tree)
    if not cert.ok:
        raise StageInvariantError(
            "verify", "certificate failed: " + "; ".join(cert.witnesses)
        )
    timing["verify"] = clock() - t
    timing["total"] = sum(timing.values())

    d = tree.dim
    n = tree.n_vertices
    e1 = math.log2(2 * d)
    report = PipelineReport(
        input={
            "d": d,
            "n_vertices": n,
            "interior_nodes": tree.interior_count,
            "leaves": tree.leaf_count,
        },
        weights={
            "R": wt.root_weight,
            "L": flat.L,
            "lambda": flat.lam,
            "R_eff": flat.R_eff,
        },
        grid={
            "alpha": params.alpha,
            "alpha_z": params.alpha_z,
            "delta_minus": params.delta_minus,
            "delta_plus": params.delta_plus,
        },
        stages={
            "lift": lift_info,
            "perturb": {"ratio_min": ratio_lo, "ratio_max": ratio_hi},
            "round": round_info,
        },
        output={
            "n_vertices": len(realization.coords),
            "n_facets": len(realization.facets) + 1,
            "max_xy": round_info["max_xy"],
            "max_z": round_info["max_z"],
            "bound_xy": round_info["bound_xy"],
            "bound_z": round_info["bound_z"],
        },
        certificate=cert,
        monitor={
            "R_eff_vs_n": flat.R_eff / _pow_log(n, e1),
            "max_xy_vs_n": round_info["max_xy"] / _pow_log(n, 2 * e1),
            "max_z_vs_n": round_info["max_z"] / _pow_log(n, 3 * e1),
        },
        timing=timing,
    )
    return realization, report


def realize_graph(
    g: PolytopeGraph,
    dim: int = 3,
    base: tuple[int, ...] | None = None,
) -> tuple[Realization, PipelineReport, TreeRep]:
    """Recover the stacking tree from a 1-skeleton, then run the pipeline.

    Vertices are relabeled by the recovered stacking order, so the output
    coordinates are indexed by tree layout, not by the input graph's ids.
    """
    if base is None:
        base = find_facet(g, dim)
    tree = tree_from_graph(g, dim, base)
    realization, report = run_pipeline(tree)
    return realization, report, tree
