from fractions import Fraction

import pytest

from gridlift import (
    BASE_FACET_KEY,
    InvalidInputError,
    StageInvariantError,
    adjusted_shifts,
    balance_weights,
    build_flat,
    gen_tree,
    grid_params,
    perturb_flat,
    round_and_scale,
    vertical_shifts,
)
from gridlift import lifting, rounding
from gridlift.rounding import check_volume_ratios, floor_to_multiple

F = Fraction


class TestGridParams:
    def test_tet_fixture(self):
        p = grid_params(3, 2, 4)
        assert p.alpha == F(1, 720)
        assert p.alpha_z == F(1, 12)
        assert p.delta_minus == F(39, 40)
        assert p.delta_plus == F(41, 40)

    def test_wiggle_identity(self):
        for d, L in [(3, 2), (3, 5), (4, 3), (5, 2), (6, 4)]:
            R_eff = L ** (d - 1)
            p = grid_params(d, L, R_eff)
            assert p.alpha * d * d * L ** (d - 2) * R_eff == F(1, 10)
            assert p.delta_plus - 1 == F(1, 10 * R_eff)

    def test_rejects_small_R_eff(self):
        with pytest.raises(InvalidInputError):
            grid_params(3, 1, 2)


class TestFloor:
    def test_fixture_value(self):
        assert floor_to_multiple(F(1, 7), F(1, 720)) == F(102, 720)

    def test_idempotent_on_grid(self):
        assert floor_to_multiple(F(480, 720), F(1, 720)) == F(480, 720)

    def test_integers_unchanged(self):
        assert floor_to_multiple(F(3), F(1, 720)) == 3

    def test_one_sided(self):
        for num in range(0, 50, 7):
            x = F(num, 13)
            y = floor_to_multiple(x, F(1, 12))
            assert 0 <= x - y < F(1, 12)


class TestPerturb:
    def test_tet_lands_on_grid_unchanged(self, tet_flat):
        p = grid_params(3, tet_flat.L, tet_flat.R_eff)
        pe = perturb_flat(tet_flat, p.alpha)
        assert pe.coords == tet_flat.coords
        assert pe.node_brackets == tet_flat.node_brackets
        lo, hi = check_volume_ratios(tet_flat, pe, p)
        assert lo == hi == 1

    @pytest.mark.parametrize("d,size,seed", [(3, 18, 0), (3, 19, 1), (4, 10, 2), (5, 6, 3)])
    def test_ratio_window(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        p = grid_params(d, flat.L, flat.R_eff)
        pe = perturb_flat(flat, p.alpha)
        for a, b in zip(pe.coords, flat.coords):
            for ca, cb in zip(a, b):
                assert 0 <= cb - ca < p.alpha
        lo, hi = check_volume_ratios(flat, pe, p)
        assert p.delta_minus <= lo <= hi <= p.delta_plus
        for node, b in pe.node_brackets.items():
            assert b > 0


class TestAdjustedShifts:
    def test_tet_reproduces_exact_shift(self, tet_flat, tet_weighted):
        zeta = vertical_shifts(tet_weighted, tet_flat.lam)
        assert adjusted_shifts(tet_flat, tet_weighted.tree) == zeta

    @pytest.mark.parametrize("d,size,seed", [(3, 15, 4), (4, 9, 5)])
    def test_unperturbed_matches_vertical_shifts(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        assert adjusted_shifts(flat, tree) == vertical_shifts(wt, flat.lam)

    @pytest.mark.parametrize("d,size,seed", [(3, 15, 4), (4, 9, 5)])
    def test_perturbed_shift_lower_bound(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        p = grid_params(d, flat.L, flat.R_eff)
        pe = perturb_flat(flat, p.alpha)
        zeta = vertical_shifts(wt, flat.lam)
        adj = adjusted_shifts(pe, tree)
        for node, zp in adj.items():
            assert zp >= p.delta_minus**2 * zeta[node]
            assert zp <= p.delta_plus**2 * zeta[node]


class TestRoundAndScale:
    def test_tet_fixture(self, tet_flat, tet_weighted):
        tree = tet_weighted.tree
        p = grid_params(3, tet_flat.L, tet_flat.R_eff)
        pe = perturb_flat(tet_flat, p.alpha)
        zeta = adjusted_shifts(pe, tree)
        assert zeta == {0: F(16, 9)}
        realization, info = round_and_scale(pe, tree, zeta, p)
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
        p = grid_params(d, flat.L, flat.R_eff)
        pe = perturb_flat(flat, p.alpha)
        realization, info = round_and_scale(pe, tree, adjusted_shifts(pe, tree), p)
        R_eff = flat.R_eff
        assert info["min_interior_stress"] >= F(4, 5)
        assert -2 * R_eff < info["min_base_stress"] < 0
        assert 0 < info["z_max"] < 2 * R_eff * R_eff
        assert info["min_interior_stress_rounded"] > 0
        assert all(isinstance(c, int) for pt in realization.coords for c in pt)
        assert info["max_xy"] <= info["bound_xy"]
        assert info["max_z"] <= info["bound_z"]
        # base corner sits exactly at the coordinate bound
        assert info["max_xy"] == info["bound_xy"]

    @pytest.mark.parametrize("gate,low,lower,message", [
        ("stress_map", F(79, 100), F(1, 2), "below 4/5"),
        ("direct_stresses", F(0), F(-1, 2), "not positive"),
    ])
    def test_gates_name_the_extreme_ridge(
        self, monkeypatch, tet_flat, tet_weighted, gate, low, lower, message
    ):
        # lower two interior stresses after the relift (stress_map, called by
        # build_lifted) or after snapping the heights (direct_stresses): the
        # least one is the witness
        tree = tet_weighted.tree
        p = grid_params(3, tet_flat.L, tet_flat.R_eff)
        pe = perturb_flat(tet_flat, p.alpha)
        interior = [
            r for r, keys in pe.ridge_adjacency.items() if BASE_FACET_KEY not in keys
        ]
        module = lifting if gate == "stress_map" else rounding
        original = getattr(module, gate)

        def tampered(*args):
            out = dict(original(*args))
            out[interior[0]] = low
            out[interior[1]] = lower
            return out

        monkeypatch.setattr(module, gate, tampered)
        with pytest.raises(StageInvariantError) as info:
            round_and_scale(pe, tree, adjusted_shifts(pe, tree), p)
        assert info.value.stage == "rounding"
        assert message in str(info.value)
        assert info.value.witness == interior[1]
