"""Snap the exact embedding to a grid, in integer grid units.

Both grid steps are unit fractions, 1/inv and 1/inv_z; each stage here reads
the two integers from grid_params of its complex's d and L, so the ratio gate
and the snap use the grid perturb_flat snapped to. No other module derives
the grid: the pipeline reports the steps from the realization's metadata.
Flat coordinates, held as integer homogeneous columns (D, N), are floored
to the grid of step 1/inv and kept as the integer columns (1, X) with
X = N * inv // D; the step is fine enough that every facet volume changes
by a factor inside [1 - 1/(10 R_eff), 1 + 1/(10 R_eff)]. Every bracket of
the perturbed complex is then an integer, the real bracket times
s = inv^(d-1). round_and_scale relifts by this complex's own shifts
(lifting.adjusted_shifts: the product of the two largest perturbed child
brackets of each stacking), which are the real ones times s^2, so the
relift has heights times s^2 and stresses times s; the heights are
checked against the ceiling 2 R_eff^2 and floored to the grid of step
1/inv_z as the integers H = floor(h inv_z), so each output point is (X, H)
with no rescaling. The relift gives each vertex as an integer row
(D, X..., Z), its height Z / D, and its stresses as integer pairs, so the
stage finds the highest vertex by cross-multiplication and floors each
height with one integer division. The factors s and s^2 stay implicit:
each value the stage gates or reports is divided by its factor once, and
only those values become Fractions. The stage's output is a
facets.Realization: the perturbed complex's facet table split into leaves
and base, the integer points, and metadata giving the two grid steps as
Fractions. The stage checks nothing on the snapped integers; the
certificate does, from the output alone: its stress route checks the
signs of the heights and of the ridge stresses (the pipeline reports the
least interior one), and verify_bounds the size caps 10 d^2 R_eff^2 on
the flat coordinates (attained by the base corners) and 6 R_eff^3 on the
heights, which the stage only reports.

Every inequality checked here is guaranteed by construction, so failures
raise stage errors rather than being reported as input problems.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import lifting
from .errors import StageInvariantError
from .exact import _det_int
from .facets import BASE_FACET_KEY, Realization
from .flat import FlatComplex
from .lifting import build_lifted

# Bound though only lifting calls them: the benchmark's tracer names the span
# rounding.adjusted_shifts, and its test checks this lift_heights binding.
adjusted_shifts = lifting.adjusted_shifts
lift_heights = lifting.lift_heights


def grid_params(d: int, L: int) -> tuple[int, int]:
    """The inverse grid steps (inv, inv_z) for scale L, deriving
    R_eff = L^(d-1), the base's bracket.

    inv = 10 d^2 L^(d-2) R_eff makes every facet volume ratio land within
    1/(10 R_eff) of 1, and inv_z = 3 R_eff; perturbed coordinates and
    output heights are integers in units of 1/inv and 1/inv_z. R_eff is at
    least the root weight, so at least 3 on a checked tree.
    """
    R_eff = L ** (d - 1)
    return 10 * d * d * L ** (d - 2) * R_eff, 3 * R_eff


def perturb_flat(flat: FlatComplex) -> FlatComplex:
    """Floor every coordinate to the complex's grid of step 1/inv, in grid units.

    Vertex v, held as the homogeneous column (D, N), gets X_v = N * inv // D
    per coordinate, one integer division, and is stored as the column
    (1, X_v). Each node facet gets the integer bracket of its grid points
    (the determinant with the ones column last), which is its real bracket
    times s = inv^(d-1), under the bracket scale 1.
    """
    inv, _ = grid_params(flat.d, flat.L)
    coords = [(1, *(n * inv // p[0] for n in p[1:])) for p in flat.coords]
    brackets = {
        node: _det_int([[*coords[u][1:], 1] for u in facet])
        for node, facet in flat.node_facets.items()
    }
    return replace(flat, coords=coords, node_brackets=brackets, bracket_scale=1)


def check_volume_ratios(exact: FlatComplex, perturbed: FlatComplex) -> tuple[Fraction, Fraction]:
    """Every facet volume ratio must stay within 1/(10 R_eff) of 1.

    A ratio is after / (s before) = after k / (s stored), the perturbed
    bracket being in grid units, s = inv^(d-1) on the exact complex's grid,
    and the exact one stored times its bracket scale k. It is compared with
    the window (10 R_eff -+ 1) / (10 R_eff) by cross-multiplication and
    becomes a Fraction only when reported.
    """
    k = exact.bracket_scale
    inv, _ = grid_params(exact.d, exact.L)
    s = inv ** (exact.d - 1)
    w = 10 * exact.R_eff  # the window is [(w - 1) / w, (w + 1) / w]
    lo = hi = None  # (numerator, denominator) of the extreme ratios
    for node, before in exact.node_brackets.items():
        after = perturbed.node_brackets[node]
        if after == 0 or (after > 0) != (before > 0):
            raise StageInvariantError(
                "rounding", f"facet of node {node} flipped or collapsed", node
            )
        num = abs(after) * k
        den = s * abs(before)
        if num * w < (w - 1) * den or num * w > (w + 1) * den:
            raise StageInvariantError(
                "rounding",
                f"facet volume ratio {Fraction(num, den)} of node {node} out of range",
                node,
            )
        if lo is None or num * lo[1] < lo[0] * den:
            lo = (num, den)
        if hi is None or num * hi[1] > hi[0] * den:
            hi = (num, den)
    return Fraction(*lo), Fraction(*hi)


def round_and_scale(perturbed: FlatComplex) -> tuple[Realization, dict]:
    """Relift on the perturbed complex and snap its heights to integers.

    The relift's shifts are those of the perturbed complex itself. The
    complex and the shifts are in units of its grid, so the relift's heights
    are the real ones times s^2 and its stresses the real ones times s,
    s = inv^(d-1); build_lifted's extrema are divided by s once, so each
    gate keeps its bound. The snapped heights are integers in units of
    1/inv_z, which makes every output point (X_v, H_v) integer by
    construction; the snapped points are left to the certificate, which
    checks their heights' signs, their stresses and the size caps.
    """
    d, R_eff = perturbed.d, perturbed.R_eff
    inv, inv_z = grid_params(d, perturbed.L)
    s = inv ** (d - 1)
    s2 = s * s
    rows, extrema = build_lifted(perturbed)
    (min_interior, r_in), (min_base, r_lo), (max_base, r_hi) = [
        (Fraction(n, den * s), ridge) for n, den, ridge in extrema
    ]
    if min_interior < Fraction(4, 5):
        raise StageInvariantError(
            "rounding", f"perturbed interior stress {min_interior} below 4/5", r_in
        )
    for w, ridge in ((min_base, r_lo), (max_base, r_hi)):
        if not -2 * R_eff < w < 0:
            raise StageInvariantError(
                "rounding", f"perturbed base stress {w} outside (-2 R_eff, 0)", ridge
            )

    top, top_den = rows[0][-1], rows[0][0]
    for r in rows:
        if r[-1] * top_den > top * r[0]:
            top, top_den = r[-1], r[0]
    z_max = Fraction(top, top_den * s2)
    if not (0 < z_max < 2 * R_eff * R_eff):
        raise StageInvariantError("rounding", f"z_max {z_max} outside (0, 2 R_eff^2)")

    # floor(Z inv_z / (D s^2)): the real height in units of 1/inv_z
    z_snapped = [r[-1] * inv_z // (r[0] * s2) for r in rows]
    coords_int = [(*p[1:], h) for p, h in zip(perturbed.coords, z_snapped)]
    max_xy = max(c for p in coords_int for c in p[:-1])
    max_z = max(z_snapped)

    facets = perturbed.facet_table
    realization = Realization(
        d=d,
        coords=coords_int,
        base_facet=facets.pop(BASE_FACET_KEY),
        facets=facets,
        metadata={
            "L": perturbed.L,
            "R_eff": R_eff,
            "alpha": Fraction(1, inv),
            "alpha_z": Fraction(1, inv_z),
            "max_xy": max_xy,
            "max_z": max_z,
        },
    )
    stage_report = {
        "min_interior_stress": min_interior,
        "min_base_stress": min_base,
        "min_interior_stress_ok": min_interior >= Fraction(4, 5),
        "z_max": z_max,
        "max_xy": max_xy,
        "max_z": max_z,
        "bound_xy": 10 * d * d * R_eff * R_eff,
        "bound_z": 6 * R_eff**3,
    }
    return realization, stage_report
