"""Lifting the flat complex to heights, and ridge stresses two ways.

Each stacking raises its new vertex by a vertical shift above the hyperplane
of the facet it subdivides. The shift of a stacking is the product of the
heavy child's and the (common) light children's rescaled weights, which is
what makes every crease of the lifted surface land in a controlled range:
ridge stresses come out >= lam on interior ridges and strictly inside
(-R_eff, 0) on base ridges.

Stresses are computed from scratch per ridge (the creasing of its two
facets, from the complex's flat stress plan: stress_plan takes one
elimination per ridge from the flat coordinates, and each set of heights
then costs one dot product per ridge), and independently by replaying the
stackings with two local update rules: subdividing a facet creates the new
interior ridges with a known positive stress and lowers each boundary ridge
of the facet by the shift over the incident new facet's volume. The two routes
agree exactly on every ridge of a shift-defined lifting; stress_map checks
that agreement on the exact lift and on the perturbed relift. A plan is
built by whoever lifts the complex and dropped with it: build_lifted for
the exact complex, rounding.round_and_scale once for the perturbed one,
whose relift and snapped heights share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryError, InvalidInputError, StageInvariantError
from .exact import (
    StressPlan,
    flat_stress_plan,
    height_on_hyperplane,
    plan_stresses,
)
from .flat import BASE_FACET_KEY, FlatComplex, Ridge
from .trees import TreeRep, WeightedTree


@dataclass
class LiftedComplex:
    flat: FlatComplex
    z: list[Fraction]  # by vertex id; base vertices at 0
    zeta: dict[int, Fraction]  # interior node id -> vertical shift
    stresses: dict[Ridge, Fraction]


def vertical_shifts(wt: WeightedTree, lam: Fraction) -> dict[int, Fraction]:
    """Shift of each stacking: rescaled heavy weight times light weight."""
    tree = wt.tree
    out: dict[int, Fraction] = {}
    for v in tree.interior_ids:
        ch = tree.nodes[v].children
        hc = wt.heavy_child[v]
        lights = {wt.weight[c] for i, c in enumerate(ch) if i != hc}
        if len(lights) != 1:
            raise StageInvariantError(
                "lifting", f"unbalanced weights: light children of node {v}", v
            )
        B = lam * lights.pop()
        A = lam * wt.weight[ch[hc]]
        if A < B:
            raise StageInvariantError(
                "lifting", f"unbalanced weights: heavy child of node {v} too light", v
            )
        out[v] = A * B
    return out


def lift_heights(flat: FlatComplex, zeta: dict[int, Fraction]) -> list[Fraction]:
    """Replay the stackings, raising each new vertex by its shift."""
    if any(z <= 0 for z in zeta.values()):
        raise InvalidInputError("vertical shifts must be positive")
    zero = Fraction(0)
    z: list[Fraction] = [zero] * flat.d
    for node in flat.interior_order:
        v = flat.stacked_vertex[node]
        if v != len(z):
            raise StageInvariantError(
                "lifting", f"node {node} stacks vertex {v}, expected {len(z)}", node
            )
        facet = flat.node_facets[node]
        lifted = [(*flat.coords[u], z[u]) for u in facet]
        base_height = height_on_hyperplane(lifted, flat.coords[v], flat.node_brackets[node])
        z.append(base_height + zeta[node])
    return z


def stress_plan(flat: FlatComplex) -> StressPlan:
    """The flat stress plan of a complex, for every lift of it."""
    return flat_stress_plan(
        flat.d, flat.coords, flat.ridge_adjacency, flat.facet_vertices
    )


def direct_stresses(plan: StressPlan, z: list[Fraction]) -> dict[Ridge, Fraction]:
    """Stress of every ridge, each from its own creasing evaluation.

    Raises the GeometryError of the first ridge, in adjacency order, whose
    stress is undefined.
    """
    stresses, failures = plan_stresses(plan, z)
    if failures:
        raise GeometryError(next(iter(failures.values())))
    return stresses


def incremental_stresses(
    flat: FlatComplex, tree: TreeRep, zeta: dict[int, Fraction]
) -> dict[Ridge, Fraction]:
    """Stress table built by replaying the stackings with local updates.

    Before the first stacking the surface is flat, so the base boundary
    ridges start at stress zero. Stacking with shift zeta on a facet D:
    every boundary ridge of D drops by zeta over the volume of its new
    incident facet; every ridge between two new facets S, T starts at
    zeta * |D| / (|S| |T|).
    """
    st: dict[Ridge, Fraction] = {}
    d = flat.d
    base = flat.base_facet
    for j in range(d):
        st[tuple(sorted(base[:j] + base[j + 1 :]))] = Fraction(0)
    for node in flat.interior_order:
        facet = flat.node_facets[node]
        p = flat.stacked_vertex[node]
        shift = zeta[node]
        children = tree.nodes[node].children
        cbr = [abs(flat.node_brackets[c]) for c in children]
        dbr = abs(flat.node_brackets[node])
        for j in range(d):
            ridge = tuple(sorted(facet[:j] + facet[j + 1 :]))
            st[ridge] -= shift / cbr[j]
        for i in range(d):
            for j in range(i + 1, d):
                kept = [facet[k] for k in range(d) if k not in (i, j)]
                ridge = tuple(sorted(kept + [p]))
                st[ridge] = shift * dbr / (cbr[i] * cbr[j])
    return st


def stress_map(
    flat: FlatComplex,
    plan: StressPlan,
    z: list[Fraction],
    tree: TreeRep,
    zeta: dict[int, Fraction],
) -> dict[Ridge, Fraction]:
    """Direct stresses, cross-validated against the incremental replay.

    Any ridge disagreement raises, since the two routes must match exactly
    for any shift-defined lifting.
    """
    direct = direct_stresses(plan, z)
    incremental = incremental_stresses(flat, tree, zeta)
    if set(incremental) != set(direct):
        raise StageInvariantError("lifting", "stress tables cover different ridges")
    for ridge, value in direct.items():
        if incremental[ridge] != value:
            raise StageInvariantError(
                "lifting",
                f"stress mismatch on ridge {ridge}: "
                f"direct {value}, incremental {incremental[ridge]}",
                ridge,
            )
    return direct


def build_lifted(flat: FlatComplex, wt: WeightedTree) -> LiftedComplex:
    zeta = vertical_shifts(wt, flat.lam)
    z = lift_heights(flat, zeta)
    stresses = stress_map(flat, stress_plan(flat), z, wt.tree, zeta)
    return LiftedComplex(flat, z, zeta, stresses)


def check_lift_bounds(lifted: LiftedComplex, R_eff: int) -> dict[str, Fraction]:
    """Stage gate: interior stresses >= 1, base stresses inside (-R_eff, 0).

    Returns the extrema for reporting; any violation is an implementation
    bug, not an input problem, hence the stage error.
    """
    flat = lifted.flat
    min_interior: Fraction | None = None
    min_base: Fraction | None = None
    max_base: Fraction | None = None
    for ridge, (k1, k2) in flat.ridge_adjacency.items():
        w = lifted.stresses[ridge]
        if BASE_FACET_KEY in (k1, k2):
            if not (-R_eff < w < 0):
                raise StageInvariantError(
                    "lifting", f"base ridge {ridge} stress {w} outside (-{R_eff}, 0)", ridge
                )
            min_base = w if min_base is None else min(min_base, w)
            max_base = w if max_base is None else max(max_base, w)
        else:
            if w < 1:
                raise StageInvariantError(
                    "lifting", f"interior ridge {ridge} stress {w} below 1", ridge
                )
            min_interior = w if min_interior is None else min(min_interior, w)
    if any(h <= 0 for h in lifted.z[flat.d :]):
        raise StageInvariantError("lifting", "non-base vertex at or below height 0")
    return {
        "min_interior_stress": min_interior,
        "min_base_stress": min_base,
        "max_base_stress": max_base,
    }
