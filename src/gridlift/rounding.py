"""Snap the exact embedding to a grid and scale to integers.

Two grids: flat coordinates are floored to multiples of alpha, chosen fine
enough that every facet volume changes by a factor inside
[1 - 1/(10 R_eff), 1 + 1/(10 R_eff)]; heights are recomputed with adjusted
shifts (product of the two largest perturbed facet volumes of each
stacking), checked against the ceiling 2 R_eff^2, then floored to multiples
of alpha_z = 1/(3 R_eff). Multiplying by the inverse grid steps yields the
integer realization; hard size caps bound the flat coordinates by
10 d^2 R_eff^2 (attained by the base corners) and heights by 6 R_eff^3.

Every inequality checked here is guaranteed by construction, so failures
raise stage errors rather than being reported as input problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, StageInvariantError
from .flat import BASE_FACET_KEY, FlatComplex, recompute_node_brackets
from .lifting import direct_stresses, lift_heights, stress_map, stress_plan
from .trees import TreeRep


@dataclass
class GridParams:
    d: int
    L: int
    R_eff: int
    alpha: Fraction  # flat grid step
    alpha_z: Fraction  # height grid step
    delta_plus: Fraction  # volume ratio ceiling, 1 + 1/(10 R_eff)
    delta_minus: Fraction  # volume ratio floor, 1 - 1/(10 R_eff)


@dataclass
class Realization:
    """Integer-coordinate realization of the stacked polytope."""

    d: int
    coords: list[tuple[int, ...]]  # by vertex id, length-d integer points
    facets: dict[int, tuple[int, ...]]  # leaf node id -> vertex ids
    base_facet: tuple[int, ...]
    metadata: dict

    def facet_vertices(self, key: int) -> tuple[int, ...]:
        return self.base_facet if key == BASE_FACET_KEY else self.facets[key]


def grid_params(d: int, L: int, R_eff: int) -> GridParams:
    if R_eff < 3:
        raise InvalidInputError(f"grid needs R_eff >= 3, got {R_eff}")
    spread = d * d * L ** (d - 2)
    alpha = Fraction(1, 10 * spread * R_eff)
    alpha_z = Fraction(1, 3 * R_eff)
    wiggle = alpha * spread  # identically 1/(10 R_eff)
    return GridParams(d, L, R_eff, alpha, alpha_z, 1 + wiggle, 1 - wiggle)


def floor_to_multiple(x: Fraction, step: Fraction) -> Fraction:
    return math.floor(x / step) * step


def perturb_flat(flat: FlatComplex, alpha: Fraction) -> FlatComplex:
    """Floor every coordinate to the alpha-grid; brackets recomputed."""
    coords = [
        tuple(floor_to_multiple(c, alpha) for c in p) for p in flat.coords
    ]
    out = FlatComplex(
        d=flat.d,
        coords=coords,
        facets=flat.facets,
        base_facet=flat.base_facet,
        ridge_adjacency=flat.ridge_adjacency,
        node_facets=flat.node_facets,
        node_brackets={},
        stacked_vertex=flat.stacked_vertex,
        interior_order=flat.interior_order,
        L=flat.L,
        lam=flat.lam,
        R_eff=flat.R_eff,
    )
    out.node_brackets = recompute_node_brackets(out)
    return out


def check_volume_ratios(
    exact: FlatComplex, perturbed: FlatComplex, params: GridParams
) -> tuple[Fraction, Fraction]:
    """Every facet volume ratio must stay inside [delta_minus, delta_plus]."""
    lo = hi = None
    for node, before in exact.node_brackets.items():
        after = perturbed.node_brackets[node]
        if after == 0 or (after > 0) != (before > 0):
            raise StageInvariantError(
                "rounding", f"facet of node {node} flipped or collapsed", node
            )
        ratio = after / before
        if not (params.delta_minus <= ratio <= params.delta_plus):
            raise StageInvariantError(
                "rounding", f"facet volume ratio {ratio} of node {node} out of range", node
            )
        lo = ratio if lo is None else min(lo, ratio)
        hi = ratio if hi is None else max(hi, ratio)
    return lo, hi


def adjusted_shifts(perturbed: FlatComplex, tree: TreeRep) -> dict[int, Fraction]:
    """Per stacking: product of the two largest new-facet volumes.

    Ties break toward the lower child index. On an unperturbed complex this
    reproduces the original shifts, since the heavy and one light child are
    the two largest by construction.
    """
    out: dict[int, Fraction] = {}
    for node in perturbed.interior_order:
        children = tree.nodes[node].children
        ranked = sorted(
            range(len(children)),
            key=lambda i: (-abs(perturbed.node_brackets[children[i]]), i),
        )
        a = abs(perturbed.node_brackets[children[ranked[0]]])
        b = abs(perturbed.node_brackets[children[ranked[1]]])
        out[node] = a * b
    return out


def round_and_scale(
    perturbed: FlatComplex,
    tree: TreeRep,
    zeta_adj: dict[int, Fraction],
    params: GridParams,
) -> tuple[Realization, dict]:
    """Relift on the perturbed complex, snap heights, scale to integers."""
    R_eff = params.R_eff
    z = lift_heights(perturbed, zeta_adj)
    # one plan serves the relift and the snapped heights: same flat complex
    plan = stress_plan(perturbed)
    stresses = stress_map(perturbed, plan, z, tree, zeta_adj)

    min_interior = min_base = None
    for ridge, (k1, k2) in perturbed.ridge_adjacency.items():
        w = stresses[ridge]
        if BASE_FACET_KEY in (k1, k2):
            if not (-2 * R_eff < w < 0):
                raise StageInvariantError(
                    "rounding", f"perturbed base stress {w} outside (-2 R_eff, 0)", ridge
                )
            min_base = w if min_base is None else min(min_base, w)
        else:
            if w < Fraction(4, 5):
                raise StageInvariantError(
                    "rounding", f"perturbed interior stress {w} below 4/5", ridge
                )
            min_interior = w if min_interior is None else min(min_interior, w)

    z_max = max(z)
    if not (0 < z_max < 2 * R_eff * R_eff):
        raise StageInvariantError("rounding", f"z_max {z_max} outside (0, 2 R_eff^2)")

    z_snapped = [floor_to_multiple(h, params.alpha_z) for h in z]
    final_stresses = direct_stresses(plan, z_snapped)
    min_interior_final = None
    for ridge, (k1, k2) in perturbed.ridge_adjacency.items():
        w = final_stresses[ridge]
        if BASE_FACET_KEY in (k1, k2):
            if w >= 0:
                raise StageInvariantError(
                    "rounding", f"rounded base stress {w} not negative", ridge
                )
        else:
            if w <= 0:
                raise StageInvariantError(
                    "rounding", f"rounded interior stress {w} not positive", ridge
                )
            min_interior_final = (
                w if min_interior_final is None else min(min_interior_final, w)
            )
    if any(h <= 0 for h in z_snapped[perturbed.d :]):
        raise StageInvariantError("rounding", "non-base vertex rounded to height <= 0")

    coords_int: list[tuple[int, ...]] = []
    for vid, p in enumerate(perturbed.coords):
        scaled = []
        for c in p:
            q = c / params.alpha
            if q.denominator != 1:
                raise StageInvariantError("rounding", f"coordinate {c} not on grid")
            scaled.append(q.numerator)
        hq = z_snapped[vid] / params.alpha_z
        if hq.denominator != 1:
            raise StageInvariantError("rounding", f"height {z_snapped[vid]} not on grid")
        coords_int.append(tuple(scaled + [hq.numerator]))

    bound_xy = 10 * params.d * params.d * R_eff * R_eff
    bound_z = 6 * R_eff**3
    max_xy = max(c for p in coords_int for c in p[:-1])
    max_z = max(p[-1] for p in coords_int)
    if min(c for p in coords_int for c in p) < 0:
        raise StageInvariantError("rounding", "negative output coordinate")
    if max_xy > bound_xy or max_z > bound_z:
        raise StageInvariantError(
            "rounding", f"coordinate bounds exceeded: xy {max_xy}/{bound_xy}, z {max_z}/{bound_z}"
        )

    realization = Realization(
        d=perturbed.d,
        coords=coords_int,
        facets=dict(perturbed.facets),
        base_facet=perturbed.base_facet,
        metadata={
            "L": perturbed.L,
            "R_eff": R_eff,
            "alpha": params.alpha,
            "alpha_z": params.alpha_z,
            "max_xy": max_xy,
            "max_z": max_z,
        },
    )
    stage_report = {
        "min_interior_stress": min_interior,
        "min_base_stress": min_base,
        "min_interior_stress_ok": min_interior >= Fraction(4, 5),
        "z_max": z_max,
        "min_interior_stress_rounded": min_interior_final,
        "max_xy": max_xy,
        "max_z": max_z,
        "bound_xy": bound_xy,
        "bound_z": bound_z,
    }
    return realization, stage_report
