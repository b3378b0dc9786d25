"""End-to-end driver: tree (or graph) in, certified integer realization out.

The tree is checked first (facets.check_tree), the one check of its
contract, so a malformed tree is invalid input before any stage runs.
Stage order is fixed: balance the face weights, embed flat over the
rationals (integer homogeneous columns (D, N...)), lift to the rows
(D, X..., Z) by placing each stacked vertex one coordinate up with the
flat stage's rule and raising it by its stacking's shift (the product of
its two largest child brackets), gate the exact stresses, snap to the
coordinate grid in integer grid units, relift by the same rule on the
perturbed brackets, gate again, snap heights to integers, then certify
from the final coordinates alone, the one check of the snapped integers.
Every stage keeps exact arithmetic: shifts and the two inverse grid steps
are integers. The report takes the grid steps from the
realization's metadata, so only the rounding stage knows the grid formula,
and the ratio window becomes a Fraction only here. The report captures the
extrema each gate saw so a run is auditable after the fact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StageInvariantError
from .facets import Realization, TreeRep, check_tree
from .flat import build_flat
from .lifting import build_lifted, check_lift_bounds
from .rounding import check_volume_ratios, perturb_flat, round_and_scale
from .trees import PolytopeGraph, balance_weights, check_balanced, tree_from_graph
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


def run_pipeline(tree: TreeRep) -> tuple[Realization, PipelineReport]:
    check_tree(tree)
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
    # the exact lift is only gated: rounding starts again from the flat complex
    lift_info = check_lift_bounds(flat, *build_lifted(flat))
    timing["lift"] = clock() - t

    t = clock()
    perturbed = perturb_flat(flat)
    ratio_lo, ratio_hi = check_volume_ratios(flat, perturbed)
    # the perturbed complex has the same tree and L: the relift, the
    # certificate and the report need nothing more of the exact one
    del flat
    realization, round_info = round_and_scale(perturbed)
    timing["round"] = clock() - t

    t = clock()
    cert = make_certificate(realization, tree)
    if not cert.ok:
        raise StageInvariantError(
            "verify", "certificate failed: " + "; ".join(cert.witnesses), cert.witnesses
        )
    timing["verify"] = clock() - t
    timing["total"] = sum(timing.values())

    d = tree.dim
    # the grid the round stage snapped to; on heights in units of alpha_z a
    # stress is the real one times alpha^(d-1) / alpha_z
    alpha, alpha_z = realization.metadata["alpha"], realization.metadata["alpha_z"]
    round_info["min_interior_stress_rounded"] = (
        Fraction(*cert.min_interior_stress) * alpha_z / alpha ** (d - 1)
    )
    n = tree.n_vertices
    e1 = math.log2(2 * d)  # the size monitors divide by n ** (k log2(2d))
    report = PipelineReport(
        input={
            "d": d,
            "n_vertices": n,
            "interior_nodes": tree.interior_count,
            "leaves": tree.leaf_count,
        },
        weights={
            "R": wt.root_weight,
            "L": perturbed.L,
            "lambda": Fraction(perturbed.R_eff, wt.root_weight),
            "R_eff": perturbed.R_eff,
        },
        grid={
            "alpha": alpha,
            "alpha_z": alpha_z,
            "delta_minus": Fraction(10 * perturbed.R_eff - 1, 10 * perturbed.R_eff),
            "delta_plus": Fraction(10 * perturbed.R_eff + 1, 10 * perturbed.R_eff),
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
            "R_eff_vs_n": perturbed.R_eff / float(n) ** e1,
            "max_xy_vs_n": round_info["max_xy"] / float(n) ** (2 * e1),
            "max_z_vs_n": round_info["max_z"] / float(n) ** (3 * e1),
        },
        timing=timing,
    )
    return realization, report


def realize_graph(
    g: PolytopeGraph, base: tuple[int, ...] | None = None
) -> tuple[Realization, PipelineReport, TreeRep]:
    """Recover the stacking tree from a 1-skeleton (tree_from_graph), then
    run the pipeline; the graph fixes its own dimension.

    Vertices are relabeled by the recovered stacking order, so the output
    coordinates are indexed by tree layout, not by the input graph's ids.
    Without a base it roots at the graph's least facet (find_facet).
    """
    tree = tree_from_graph(g, base)
    realization, report = run_pipeline(tree)
    return realization, report, tree
