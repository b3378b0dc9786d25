import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import StageInvariantError, gen_tree, run_pipeline
from gridlift import rounding
from gridlift.exact import bracket
from gridlift.facets import BASE_FACET_KEY
from gridlift.flat import build_flat
from gridlift.lifting import adjusted_shifts, build_lifted, direct_stresses
from gridlift.rounding import check_volume_ratios, grid_params, perturb_flat, round_and_scale
from gridlift.trees import balance_weights
from reference import by_ridge, extreme_stresses, flat_points, homogeneous_row, real_brackets

F = Fraction


def reference_round(flat):
    """The round stage over Fractions, as a reference for the grid-unit route.

    On the complex's grid, perturb to multiples of alpha = 1/inv with real brackets, relift, floor
    the heights to multiples of alpha_z = 1/inv_z, then scale by the inverse
    grid steps. The relifted complex holds the real brackets times the lcm k
    of their denominators, under the bracket scale k, so its heights and
    stresses are the real ones times k^2. Returns the integer
    coordinates, the volume-ratio extrema and the values of the round
    stage's report in run_pipeline, min_interior_stress_rounded included.
    """

    def floor_to_multiple(x, step):
        return math.floor(x / step) * step

    inv, inv_z = grid_params(flat.d, flat.L)
    alpha, alpha_z = F(1, inv), F(1, inv_z)
    coords = [
        tuple(floor_to_multiple(c, alpha) for c in p) for p in flat_points(flat)
    ]
    brackets = {
        node: bracket([coords[u] for u in facet])
        for node, facet in flat.node_facets.items()
    }
    k = math.lcm(*(b.denominator for b in brackets.values()))
    pe = dataclasses.replace(
        flat,
        coords=[homogeneous_row(p) for p in coords],
        node_brackets={node: int(b * k) for node, b in brackets.items()},
        bracket_scale=k,
    )
    ratios = [brackets[node] / b for node, b in real_brackets(flat).items()]
    rows, _ = build_lifted(pe)
    z = [F(r[-1], r[0] * k * k) for r in rows]
    relift = direct_stresses(pe, rows)
    (w_in, _), (w_lo, _), _ = extreme_stresses(
        pe.ridge_adjacency,
        {r: w / (k * k) for r, w in by_ridge(pe.ridge_adjacency, relift).items()},
    )
    z_snapped = [floor_to_multiple(h, alpha_z) for h in z]
    snapped = direct_stresses(
        pe, [homogeneous_row((*p, h)) for p, h in zip(coords, z_snapped)]
    )
    (w_in_rounded, _), _, _ = extreme_stresses(
        pe.ridge_adjacency, by_ridge(pe.ridge_adjacency, snapped)
    )
    scaled = []
    for p, h in zip(coords, z_snapped):
        q = [c / alpha for c in p] + [h / alpha_z]
        assert all(x.denominator == 1 for x in q)
        scaled.append(tuple(x.numerator for x in q))
    R_eff = flat.R_eff
    report = {
        "min_interior_stress": w_in,
        "min_base_stress": w_lo,
        "min_interior_stress_ok": w_in >= F(4, 5),
        "z_max": max(z),
        "min_interior_stress_rounded": w_in_rounded,
        "max_xy": max(c for p in scaled for c in p[:-1]),
        "max_z": max(p[-1] for p in scaled),
        "bound_xy": 10 * flat.d**2 * R_eff**2,
        "bound_z": 6 * R_eff**3,
    }
    return scaled, (min(ratios), max(ratios)), report


class TestGridUnitsMatchReference:
    @given(
        shape=st.sampled_from(["random", "serpentine"]),
        d=st.integers(3, 7),
        size=st.integers(1, 20),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_to_fraction_route(self, shape, d, size, seed):
        tree = gen_tree(shape, d, size, seed)
        flat = build_flat(balance_weights(tree))
        coords, ratios, report = reference_round(flat)
        pe = perturb_flat(flat)
        assert check_volume_ratios(flat, pe) == ratios
        realization, info = round_and_scale(pe)
        assert realization.coords == coords
        # every value but the rounded surface's least interior stress, which
        # run_pipeline takes from the certificate
        assert info == {k: v for k, v in report.items() if k != "min_interior_stress_rounded"}
        round_report = run_pipeline(tree)[1].stages["round"]
        assert round_report == report
        # same types too, so the serialized reports are the same bytes
        assert {k: type(v) for k, v in round_report.items()} == {
            k: type(v) for k, v in report.items()
        }


class TestGridParams:
    def test_tet_fixture(self):
        assert grid_params(3, 2) == (720, 12)
        assert all(type(x) is int for x in grid_params(3, 2))

    def test_wiggle_identity(self):
        for d, L in [(3, 2), (3, 5), (4, 3), (5, 2), (6, 4)]:
            R_eff = L ** (d - 1)
            inv, inv_z = grid_params(d, L)
            assert F(d * d * L ** (d - 2) * R_eff, inv) == F(1, 10)
            assert inv_z == 3 * R_eff


class TestPerturb:
    def test_tet_lands_on_grid_unchanged(self, tet_flat):
        inv, _ = grid_params(3, tet_flat.L)
        pe = perturb_flat(tet_flat)
        assert pe.coords == [
            (1, *(c * inv for c in pt)) for pt in flat_points(tet_flat)
        ]
        # brackets in grid units: the real ones times s = inv^(d-1)
        s = inv**2
        assert pe.bracket_scale == 1
        assert pe.node_brackets == {n: b * s for n, b in real_brackets(tet_flat).items()}
        lo, hi = check_volume_ratios(tet_flat, pe)
        assert lo == hi == 1

    @pytest.mark.parametrize("d,size,seed", [(3, 18, 0), (3, 19, 1), (4, 10, 2), (5, 6, 3)])
    def test_ratio_window(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        inv, _ = grid_params(d, flat.L)
        pe = perturb_flat(flat)
        for a, b in zip(pe.coords, flat_points(flat)):
            assert a[0] == 1
            for ca, cb in zip(a[1:], b):
                assert type(ca) is int
                assert 0 <= cb * inv - ca < 1
        lo, hi = check_volume_ratios(flat, pe)
        wiggle = F(1, 10 * flat.R_eff)
        assert 1 - wiggle <= lo <= hi <= 1 + wiggle
        for node, b in pe.node_brackets.items():
            assert type(b) is int and b > 0

    @pytest.mark.parametrize("edit", ["collapsed", "flipped", "above", "below"])
    def test_ratio_gate_names_the_edited_node(self, edit):
        # one node bracket of the perturbed complex edited by hand: the gate
        # accepts the window's ends and names the node just past them
        flat = build_flat(balance_weights(gen_tree("random", 3, 12, 1)))
        pe = perturb_flat(flat)
        node = list(pe.node_brackets)[len(pe.node_brackets) // 2]
        inv, _ = grid_params(3, flat.L)
        w = 10 * flat.R_eff
        # a bracket b is inside iff (w - 1) / w <= b k / (s before) <= (w + 1) / w
        den = w * flat.bracket_scale
        real = inv**2 * flat.node_brackets[node]
        lo, hi = -(-(w - 1) * real // den), (w + 1) * real // den
        assert 0 < lo <= pe.node_brackets[node] <= hi

        def ratios_with(b):
            return check_volume_ratios(
                flat, dataclasses.replace(pe, node_brackets={**pe.node_brackets, node: b})
            )

        ratios_with(lo)
        ratios_with(hi)
        value, message = {
            "collapsed": (0, "flipped or collapsed"),
            "flipped": (-pe.node_brackets[node], "flipped or collapsed"),
            "above": (hi + 1, "out of range"),
            "below": (lo - 1, "out of range"),
        }[edit]
        with pytest.raises(StageInvariantError, match=message) as info:
            ratios_with(value)
        assert info.value.stage == "rounding"
        assert info.value.witness == node


def heavy_times_light(wt, L):
    """The paper's shift of each stacking: the heavy child's rescaled weight
    times a light child's, lam = L^(d-1) / R."""
    lam = F(L ** (wt.tree.dim - 1), wt.root_weight)
    out = {}
    for v in wt.tree.interior_ids:
        children = wt.tree.children[v]
        hc = wt.heavy_child[v]
        w_heavy = wt.weight[children[hc]]
        w_light = wt.weight[children[1 if hc == 0 else 0]]
        out[v] = (lam * w_heavy) * (lam * w_light)
    return out


class TestAdjustedShifts:
    # the shifts of the exact complex are the real ones times bracket_scale^2
    def test_tet_reproduces_exact_shift(self, tet_flat, tet_weighted):
        zeta = heavy_times_light(tet_weighted, tet_flat.L)
        assert zeta == {0: F(16, 9)}
        assert adjusted_shifts(tet_flat) == {0: 16} == {0: zeta[0] * 3**2}

    @pytest.mark.parametrize("d", range(3, 8))
    @pytest.mark.parametrize(
        "shape,size", [("random", 12), ("serpentine", 8), ("balanced_rounds", 2)]
    )
    def test_unperturbed_is_heavy_times_light(self, shape, size, d):
        # on the exact complex each child bracket is lam * weight, so the two
        # largest are the heavy child's and a light child's
        tree = gen_tree(shape, d, size, seed=d)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        k2 = flat.bracket_scale**2
        expected = {v: z * k2 for v, z in heavy_times_light(wt, flat.L).items()}
        assert adjusted_shifts(flat) == expected
        assert all(type(z) is int for z in adjusted_shifts(flat).values())

    @pytest.mark.parametrize("d,size,seed", [(3, 15, 4), (4, 9, 5)])
    def test_perturbed_shift_lower_bound(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        inv, _ = grid_params(d, flat.L)
        pe = perturb_flat(flat)
        zeta = heavy_times_light(wt, flat.L)
        adj = adjusted_shifts(pe)
        s2 = inv ** (2 * d - 2)  # the shifts are in grid units
        wiggle = F(1, 10 * flat.R_eff)
        for node, zp in adj.items():
            assert type(zp) is int
            assert zp >= (1 - wiggle) ** 2 * zeta[node] * s2
            assert zp <= (1 + wiggle) ** 2 * zeta[node] * s2


class TestRoundAndScale:
    def test_tet_fixture(self, tet_flat):
        pe = perturb_flat(tet_flat)
        # the relift's shift: the real one times s^2
        assert adjusted_shifts(pe) == {0: F(16, 9) * 720**4}
        realization, info = round_and_scale(pe)
        assert realization.coords == [
            (0, 0, 0),
            (1440, 0, 0),
            (0, 1440, 0),
            (480, 480, 21),
        ]
        assert info["z_max"] == F(16, 9)
        assert info["max_xy"] == 1440 == info["bound_xy"]
        assert info["max_z"] == 21
        assert info["bound_z"] == 384
        assert info["min_interior_stress"] == 4
        assert info["min_interior_stress_ok"] is True

    @pytest.mark.parametrize("d,size,seed", [(3, 22, 6), (4, 11, 7), (5, 7, 8)])
    def test_gates_hold_on_randoms(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        pe = perturb_flat(flat)
        realization, info = round_and_scale(pe)
        R_eff = flat.R_eff
        assert info["min_interior_stress"] >= F(4, 5)
        assert -2 * R_eff < info["min_base_stress"] < 0
        assert 0 < info["z_max"] < 2 * R_eff * R_eff
        assert all(isinstance(c, int) for pt in realization.coords for c in pt)
        assert info["max_xy"] <= info["bound_xy"]
        assert info["max_z"] <= info["bound_z"]
        # base corner sits exactly at the coordinate bound
        assert info["max_xy"] == info["bound_xy"]

    @pytest.mark.parametrize("d,size,seed", [(3, 22, 6), (4, 11, 7), (5, 7, 8)])
    def test_rounded_interior_stress_is_positive(self, d, size, seed):
        # the round stage evaluates no stress on the snapped heights: the
        # certificate checks them, and run_pipeline reports the least one
        _, report = run_pipeline(gen_tree("random", d, size, seed))
        assert report.certificate.ok
        assert report.stages["round"]["min_interior_stress_rounded"] > 0

    # the relift's stresses are in units of 1/s = 1/720^2; messages give
    # real values. The snapped heights' stresses are the certificate's,
    # tested through the CLI in test_pipeline_cli
    def test_gate_names_the_extreme_ridge(self, monkeypatch, tet_flat):
        # lower the relift's least interior stress (build_lifted, as the
        # round stage binds it, keeps it) to 1/2 on another ridge: that
        # ridge is the witness
        pe = perturb_flat(tet_flat)
        interior = [
            r for r, keys in pe.ridge_adjacency.items() if keys[0] != BASE_FACET_KEY
        ]
        original = rounding.build_lifted

        def tampered(*args):
            z, (least, *base) = original(*args)
            assert least[2] != interior[1]
            return z, ((720**2, 2, interior[1]), *base)

        monkeypatch.setattr(rounding, "build_lifted", tampered)
        with pytest.raises(StageInvariantError) as info:
            round_and_scale(pe)
        assert info.value.stage == "rounding"
        assert "below 4/5" in str(info.value)
        assert "stress 1/2 " in str(info.value)
        assert info.value.witness == interior[1]

    def test_height_gate_names_the_low_vertex(self, monkeypatch, two_stack_tree):
        # sink one non-base vertex below the top one to height 0 after the
        # relift: the snapped height is 0, which the round stage leaves to
        # the certificate, and its height precheck names that vertex
        original = rounding.build_lifted
        sunk = []

        def tampered(flat, *args):
            rows, extrema = original(flat, *args)
            rows = list(rows)
            top = max(range(len(rows)), key=lambda v: F(rows[v][-1], rows[v][0]))
            sunk.append(next(v for v in range(flat.d, len(rows)) if v != top))
            rows[sunk[0]] = (*rows[sunk[0]][:-1], 0)
            return rows, extrema

        monkeypatch.setattr(rounding, "build_lifted", tampered)
        with pytest.raises(StageInvariantError) as info:
            run_pipeline(two_stack_tree)
        assert info.value.stage == "verify"
        assert f"non-base vertex {sunk[0]} at height zero" in info.value.witness

    @pytest.mark.parametrize("excess,raises", [(0, False), (-1, True)])
    def test_relift_gate_bound_is_in_grid_units(
        self, monkeypatch, tet_flat, excess, raises
    ):
        # an interior stress of exactly 4/5 in real units passes; one grid
        # unit below it does not
        pe = perturb_flat(tet_flat)
        ridge = next(
            r for r, keys in pe.ridge_adjacency.items() if keys[0] != BASE_FACET_KEY
        )
        original = rounding.build_lifted

        def tampered(*args):
            z, (_, *base) = original(*args)
            # 4/5 * 720^2 + excess
            return z, ((4 * 720**2 + 5 * excess, 5, ridge), *base)

        monkeypatch.setattr(rounding, "build_lifted", tampered)
        if raises:
            with pytest.raises(StageInvariantError, match="below 4/5") as info:
                round_and_scale(pe)
            assert info.value.witness == ridge
        else:
            _, report = round_and_scale(pe)
            assert report["min_interior_stress"] == F(4, 5)
