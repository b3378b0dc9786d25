"""Fraction references that the package's integer stages are held against."""

from fractions import Fraction
from typing import Sequence

from gridlift import (
    BASE_FACET_KEY,
    GeometryError,
    InvalidInputError,
    base_simplex,
    stress_of_ridge,
)
from gridlift.trees import facet_layout


def place_stacked_vertex(
    facet_coords: Sequence[Sequence], child_weights: Sequence[Fraction], W: Fraction
) -> tuple[Fraction, ...]:
    """Barycentric placement over Fractions: child i's weight multiplies
    facet vertex i."""
    if len(facet_coords) != len(child_weights):
        raise InvalidInputError("one weight per facet vertex required")
    if any(a <= 0 for a in child_weights):
        raise InvalidInputError("child weights must be positive")
    if sum(child_weights) != W:
        raise InvalidInputError("child weights must sum to the facet weight")
    dim = len(facet_coords[0])
    out = []
    for axis in range(dim):
        out.append(sum((a * u[axis] for a, u in zip(child_weights, facet_coords)), Fraction(0)) / W)
    return tuple(out)


def point(column: Sequence[int]) -> tuple[Fraction, ...]:
    """The point N / D of a homogeneous column (N_1, ..., N_k, D)."""
    *nums, den = column
    return tuple(Fraction(n, den) for n in nums)


def flat_points(flat) -> list[tuple[Fraction, ...]]:
    """A flat complex's vertices as points."""
    return [point(c) for c in flat.coords]


def reference_flat_points(wt) -> list[tuple[Fraction, ...]]:
    """Every vertex of the flat embedding of a weighted tree, placed over
    Fractions with the weights rescaled by lam = L^(d-1) / R."""
    tree = wt.tree
    base, L = base_simplex(tree.dim, wt.root_weight)
    lam = Fraction(L ** (tree.dim - 1), wt.root_weight)
    out = [point(c) for c in base]
    layout, _ = facet_layout(tree)
    for v in tree.interior_ids:
        weights = [lam * wt.weight[c] for c in tree.nodes[v].children]
        out.append(
            place_stacked_vertex([out[u] for u in layout[v]], weights, lam * wt.weight[v])
        )
    return out


def real_brackets(flat) -> dict[int, Fraction]:
    """A flat complex's node brackets, divided by its bracket scale."""
    return {n: Fraction(b, flat.bracket_scale) for n, b in flat.node_brackets.items()}


def reference_stresses(points, adjacency, facet_vertices) -> dict:
    """stress_of_ridge on every ridge of lifted points: its value, or its
    GeometryError message."""
    out = {}
    for ridge, keys in adjacency.items():
        X = [points[v] for v in ridge]
        S, T = (
            X + [points[next(v for v in facet_vertices(k) if v not in ridge)]]
            for k in keys
        )
        try:
            out[ridge] = stress_of_ridge(X, S, T, BASE_FACET_KEY in keys)
        except GeometryError as exc:
            out[ridge] = str(exc)
    return out
