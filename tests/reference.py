"""References that the package's integer stages and linear certificate
routes are held against: Fraction definitions, the ridge-keyed stress
replay, stress lists keyed back by ridge, the exhaustive convexity oracle,
and two facet lists that find_facet is held against; and the package's
modules, as these tests imported them."""

from fractions import Fraction
from math import gcd
from types import ModuleType
from typing import Sequence

import gridlift
from gridlift import GeometryError, InvalidInputError, Realization
from gridlift.exact import _det_int, bracket, homogeneous_column, stress_of_ridge
from gridlift.facets import BASE_FACET_KEY, build_ridge_adjacency, facet_layout
from gridlift.flat import base_simplex
from gridlift.lifting import adjusted_shifts, incremental_stresses
from gridlift.rounding import perturb_flat
from gridlift.verify import (
    _facets_in_order,
    _surface,
    _surface_witnesses,
)


def package_modules() -> list[ModuleType]:
    """The gridlift package these tests imported, and its loaded modules.

    Read from the package object, not from sys.modules: a fresh import of
    gridlift in the same session, as the benchmark's tests make, replaces
    the sys.modules entries but not the modules the tests' names are bound
    to.
    """
    return [gridlift] + [
        m
        for m in vars(gridlift).values()
        if isinstance(m, ModuleType) and m.__name__.startswith("gridlift.")
    ]


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


def height_on_hyperplane(facet: Sequence[Sequence], p: Sequence) -> Fraction:
    """Height of the hyperplane through d lifted points above flat point p.

    `facet` holds d points in Q^d whose projections span a nondegenerate
    simplex; p lives in Q^{d-1}. The value is the bracket of facet with
    (p, 0) appended, divided by the projected facet bracket. The sign
    convention makes the plane through the standard basis points of Q^3
    evaluate to 1 at the origin. The lift takes the same value from the
    facet brackets the flat complex already holds, with no determinant of
    its own.
    """
    shadow = bracket([q[:-1] for q in facet])
    if shadow == 0:
        raise GeometryError("vertical hyperplane: projected facet is degenerate")
    return bracket(list(facet) + [(*p, Fraction(0))]) / shadow


def hyperplane_heights(flat, zeta) -> list[Fraction]:
    """Per stacking, the height of the lifted facet's hyperplane above the
    new vertex, from its own determinants, plus the shift: the Fraction
    reference for lifting.lift_heights."""
    points = flat_points(flat)
    z = [Fraction(0)] * flat.d
    for node in flat.tree.interior_ids:
        lifted = [(*points[u], z[u]) for u in flat.node_facets[node]]
        p = points[len(z)]
        z.append(height_on_hyperplane(lifted, p) + zeta[node])
    return z


def check_lifted_rows(complex_, zeta, rows) -> None:
    """The lift's invariant: each row (D, X..., Z) is primitive with D > 0,
    its (D, X) is the complex's own column times a positive integer, and
    Z / D is the reference height."""
    assert [Fraction(r[-1], r[0]) for r in rows] == hyperplane_heights(complex_, zeta)
    assert len(rows) == len(complex_.coords)
    for row, column in zip(rows, complex_.coords):
        assert row[0] > 0 and gcd(*row) == 1
        m = row[0] // column[0]
        assert m >= 1 and row[:-1] == tuple(m * x for x in column)


def incremental_stresses_by_key(flat, zeta) -> dict:
    """lifting.incremental_stresses keyed by ridge as it was before the
    replay ran over ridge numbers: each update finds its ridge by the
    sorted vertex ids of the facet less a vertex, or less two vertices and
    plus the stacked one. The same pairs, in the same creation order."""
    brackets, scale = flat.node_brackets, flat.bracket_scale
    layout, children = flat.node_facets, flat.tree.children
    st = {}
    d = flat.d
    base = layout[0]
    for j in range(d):
        st[tuple(sorted(base[:j] + base[j + 1 :]))] = (0, 1)
    for node in flat.tree.interior_ids:
        facet = layout[node]
        p = layout[children[node][0]][0]  # the stacked vertex
        num = zeta[node] * scale
        cbr = [abs(brackets[c]) for c in children[node]]
        dbr = abs(brackets[node])
        for j in range(d):
            ridge = tuple(sorted(facet[:j] + facet[j + 1 :]))
            a, b = st[ridge]
            c = cbr[j]
            g = gcd(num, c)
            t, c = num // g, c // g
            g = gcd(b, c)
            c //= g
            st[ridge] = (a * c - t * (b // g), b * c)
        for i in range(d):
            for j in range(i + 1, d):
                kept = [facet[k] for k in range(d) if k not in (i, j)]
                st[tuple(sorted(kept + [p]))] = (num * dbr, cbr[i] * cbr[j])
    return st


def check_ridge_records(d, adjacency, facets) -> None:
    """Each record (k1, p, k2, q) of a ridge table names two facets of the
    facet table, in its order, whose sorted ids less position p, and less
    position q, are the ridge; k1 is the base exactly on the base facet's d
    ridges."""
    order = {key: i for i, key in enumerate(facets)}
    base_ridges = []
    for ridge, (k1, p, k2, q) in adjacency.items():
        assert order[k1] < order[k2]
        for key, pos in ((k1, p), (k2, q)):
            ids = sorted(facets[key])
            assert 0 <= pos < d and tuple(ids[:pos] + ids[pos + 1 :]) == ridge
        if k1 == BASE_FACET_KEY:
            base_ridges.append(ridge)
    base = sorted(facets[BASE_FACET_KEY])
    assert sorted(base_ridges) == sorted(tuple(base[:j] + base[j + 1 :]) for j in range(d))


def check_ridge_tables(flat) -> None:
    """The flat walk's node facets are facet_layout's, node for node and
    in order, its ridge table is build_ridge_adjacency's, ridge for ridge
    and record for record (both facet keys and both positions of their
    extra vertices), so that both tables' records pass check_ridge_records,
    and on the complex and its perturbation the replay over ridge numbers
    gives incremental_stresses_by_key's pairs in its order."""
    assert list(flat.node_facets.items()) == list(facet_layout(flat.tree).items())
    table = build_ridge_adjacency(flat.d, flat.facet_table)
    assert flat.ridge_adjacency == table
    # the builder lists each ridge where a facet first gives it, a facet's
    # ridges opposite its vertices in order: the certificate's witness order
    first_seen = dict.fromkeys(
        tuple(sorted(f[:j] + f[j + 1 :])) for f in flat.facet_table.values() for j in range(flat.d)
    )
    assert list(table) == list(first_seen)
    check_ridge_records(flat.d, table, flat.facet_table)
    for complex_ in (flat, perturb_flat(flat)):
        zeta = adjusted_shifts(complex_)
        replay = incremental_stresses(complex_, zeta)
        assert list(zip(complex_.ridge_adjacency, replay, strict=True)) == list(
            incremental_stresses_by_key(complex_, zeta).items()
        )


def by_ridge(table, stresses) -> dict:
    """A stress list by ridge number, one entry per ridge of its ridge table,
    keyed by the table's ridges in its order: each pair (numerator,
    denominator) as a Fraction, each failure as its message."""
    assert type(stresses) is list and len(stresses) == len(table)
    return {
        ridge: w if isinstance(w, str) else Fraction(*w) for ridge, w in zip(table, stresses)
    }


def point(column: Sequence[int]) -> tuple[Fraction, ...]:
    """The point N / D of a homogeneous column (D, N_1, ..., N_k)."""
    den, *nums = column
    return tuple(Fraction(n, den) for n in nums)


def homogeneous_row(p: Sequence) -> tuple[int, ...]:
    """The point p as the integer homogeneous row (D, p D), D the lcm of
    its denominators: homogeneous_column with D moved first."""
    *scaled, den = homogeneous_column(p)
    return (den, *scaled)


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
    layout = facet_layout(tree)
    for v in tree.interior_ids:
        weights = [lam * wt.weight[c] for c in tree.children[v]]
        out.append(
            place_stacked_vertex([out[u] for u in layout[v]], weights, lam * wt.weight[v])
        )
    return out


def real_brackets(flat) -> dict[int, Fraction]:
    """A flat complex's node brackets, divided by its bracket scale."""
    return {n: Fraction(b, flat.bracket_scale) for n, b in flat.node_brackets.items()}


def facet_table(complex_) -> dict:
    """The facet table, base first, of a flat complex or a realization."""
    if hasattr(complex_, "facet_table"):
        return complex_.facet_table
    return {BASE_FACET_KEY: complex_.base_facet, **complex_.facets}


def facet_lookup(complex_):
    """Facet vertices by facet-table key, the base facet's included, of a
    flat complex or a realization."""
    return facet_table(complex_).__getitem__


def reference_stresses(points, adjacency, facet_vertices) -> dict:
    """stress_of_ridge on every ridge of lifted points: its value, or its
    GeometryError message. Each facet's extra vertex is found by a search
    of its vertices, not read from the record's positions."""
    out = {}
    for ridge, (k1, _, k2, _) in adjacency.items():
        keys = (k1, k2)
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


def extreme_stresses(adjacency, values) -> list[tuple[Fraction, tuple]]:
    """The least interior, least base and greatest base stress of a table
    of Fraction values, each with its ridge, by min and max over the
    ridges in adjacency order: each keeps the first of equal values."""
    interior = [(values[r], r) for r, keys in adjacency.items() if keys[0] != BASE_FACET_KEY]
    base = [(values[r], r) for r, keys in adjacency.items() if keys[0] == BASE_FACET_KEY]

    def value(pair):
        return pair[0]

    return [min(interior, key=value), min(base, key=value), max(base, key=value)]


def reference_heavy_paths(tree):
    """Heavy-child table (interior node -> child index) and the maximal
    heavy paths as (path, light edges), listed by ascending top id.

    The heavy child maximizes subtree node count, ties going to the lowest
    child index; a path runs from its top (the root or a light child) down
    heavy children to a leaf, and its light edges are the (path node, light
    child) pairs hanging off it.
    """
    sizes = [1] * len(tree.children)
    for v in range(len(tree.children) - 1, -1, -1):
        for c in tree.children[v]:
            sizes[v] += sizes[c]
    heavy = {}
    for v in tree.interior_ids:
        ch = tree.children[v]
        best = 0
        for i in range(1, len(ch)):
            if sizes[ch[i]] > sizes[ch[best]]:
                best = i
        heavy[v] = best
    tops = [0] + sorted(
        c
        for v in tree.interior_ids
        for i, c in enumerate(tree.children[v])
        if i != heavy[v] and not tree.is_leaf(c)
    )
    paths = []
    for top in tops:
        path, light = [top], []
        v = top
        while not tree.is_leaf(v):
            ch = tree.children[v]
            light += [(v, c) for i, c in enumerate(ch) if i != heavy[v]]
            v = ch[heavy[v]]
            path.append(v)
        paths.append((path, light))
    return heavy, paths


def reference_balance_weights(tree):
    """balance_weights path by path: (weights by node id, heavy table).

    Paths are taken bottom-up. Within a path the node weights are summed
    from their children, every light child is raised to its heaviest light
    sibling (down that child's heavy path, and up the path prefix above it),
    and a path with two or more interior nodes then gains its largest light
    weight on every node.
    """
    heavy, paths = reference_heavy_paths(tree)
    weight = [1 if tree.is_leaf(v) else 0 for v in range(len(tree.children))]

    def add_down_heavy(u, delta):
        while not tree.is_leaf(u):
            weight[u] += delta
            u = tree.children[u][heavy[u]]
        weight[u] += delta

    for path, light_edges in reversed(paths):
        interiors = path[:-1]
        for v in reversed(interiors):
            weight[v] = sum(weight[c] for c in tree.children[v])
        for pos, v in enumerate(interiors):
            lights = [c for i, c in enumerate(tree.children[v]) if i != heavy[v]]
            top_w = max(weight[c] for c in lights)
            for c in lights:
                delta = top_w - weight[c]
                if delta:
                    add_down_heavy(c, delta)
                    for w in interiors[: pos + 1]:
                        weight[w] += delta
        if len(interiors) >= 2:
            pad = max(weight[c] for _, c in light_edges)
            for v in path:
                weight[v] += pad
    return weight, heavy


def nonseparating_triangles(g) -> list[tuple[int, int, int]]:
    """The facets of a stacked 3-polytope's graph, sorted: by Tutte, the
    faces of a 3-connected planar graph are its induced non-separating
    cycles, so here the triangles whose removal leaves the rest connected."""
    adj = g.adjacency
    out = []
    for u in range(g.n):
        for v in adj[u]:
            for w in adj[u] & adj[v]:
                if not u < v < w:
                    continue
                rest = set(range(g.n)) - {u, v, w}
                start = min(rest)
                seen, todo = {start}, [start]
                while todo:
                    new = (adj[todo.pop()] & rest) - seen
                    seen |= new
                    todo += new
                if seen == rest:
                    out.append((u, v, w))
    return sorted(out)


def tree_facets(tree, perm=None) -> list[tuple[int, ...]]:
    """The facets of the stacked polytope a tree describes, sorted, each as
    sorted ids: the base facet and every leaf's facet from facet_layout,
    vertex v named perm[v] when a relabelling is given."""
    layout = facet_layout(tree)
    facets = [tuple(range(tree.dim))] + [layout[leaf] for leaf in tree.leaf_ids]
    if perm is not None:
        facets = [[perm[v] for v in f] for f in facets]
    return sorted(tuple(sorted(f)) for f in facets)


def plane_by_cofactors(coords, facet):
    """The facet bracket's p-column cofactors, one _det_int per cofactor:
    g(p) = cof[:d] . p + cof[d] is the determinant of the facet's points
    and p as columns over a ones row."""
    d = len(coords[0])
    pts = [coords[v] for v in facet]
    cof = []
    for i in range(d + 1):
        rows = [[pts[j][r] for j in range(d)] for r in range(d) if r != i]
        if i < d:
            rows.append([1] * d)
        minor = _det_int(rows)
        cof.append(minor if (i + d) % 2 == 0 else -minor)
    return cof


def verify_convexity_exhaustive(realization: Realization) -> tuple[bool, list[str]]:
    """Every facet's hyperplane strictly supports all other vertices.

    The textbook definition, in O(F n) work: the reference for
    verify.verify_convexity_global. Each facet's plane is
    plane_by_cofactors, its interior side the vertex centroid's. It also
    requires a closed surface and every vertex on a facet: without them a
    convex point set with a partial or padded facet list would pass.
    """
    malformed, table, _ = _surface(realization)
    if malformed:
        return False, malformed
    witnesses = _surface_witnesses(realization, table)
    if isinstance(table, str):
        # a facet that is not d distinct vertices spans no hyperplane
        return False, witnesses
    coords = realization.coords
    n = len(coords)
    total = [sum(p[i] for p in coords) for i in range(realization.d)]
    for key, verts in _facets_in_order(realization):
        label = "base" if key == BASE_FACET_KEY else key
        *a, c = plane_by_cofactors(coords, verts)
        # n g(o) at the centroid o = total / n
        at_o = sum(x * t for x, t in zip(a, total)) + n * c
        if at_o == 0:
            witnesses.append(f"facet {label}: vertices balance across its hyperplane")
            continue
        incident = set(verts)
        for vid, p in enumerate(coords):
            # strictly inside: g(p) has the sign of g(o)
            g = sum(x * y for x, y in zip(a, p)) + c
            if vid not in incident and g * at_o <= 0:
                witnesses.append(f"facet {label}: vertex {vid} not strictly inside")
    return not witnesses, witnesses
