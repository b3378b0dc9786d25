import dataclasses
from fractions import Fraction

import pytest

from gridlift import (
    StageInvariantError,
    balance_weights,
    build_flat,
    build_lifted,
    check_lift_bounds,
    direct_stresses,
    gen_tree,
    incremental_stresses,
    vertical_shifts,
)
from gridlift.lifting import lift_heights, stress_map, stress_plan

F = Fraction


class TestVerticalShifts:
    def test_tetrahedron(self, tet_flat, tet_weighted):
        assert vertical_shifts(tet_weighted, tet_flat.lam) == {0: F(16, 9)}

    def test_two_stack(self, two_stack_tree):
        wt = balance_weights(two_stack_tree)
        flat = build_flat(wt)
        zeta = vertical_shifts(wt, flat.lam)
        assert zeta == {0: 9, 2: F(9, 2)}

    def test_rejects_unbalanced(self, two_stack_tree):
        wt = balance_weights(two_stack_tree)
        bad = list(wt.weight)
        bad[1], bad[6] = 2, 3  # unequal light children of the root
        bad[0] = bad[1] + bad[2] + bad[6]
        broken = dataclasses.replace(wt, weight=bad)
        with pytest.raises(StageInvariantError) as info:
            vertical_shifts(broken, F(3, 2))
        assert info.value.stage == "lifting"


class TestHeights:
    def test_tetrahedron(self, tet_lifted):
        assert tet_lifted.z == [0, 0, 0, F(16, 9)]

    def test_base_stays_flat(self):
        tree = gen_tree("random", 3, 12, seed=3)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        lifted = build_lifted(flat, wt)
        assert lifted.z[:3] == [0, 0, 0]
        assert all(h > 0 for h in lifted.z[3:])

    def test_heights_grow_with_shift(self, tet_flat):
        z1 = lift_heights(tet_flat, {0: F(16, 9)})
        z2 = lift_heights(tet_flat, {0: F(32, 9)})
        assert z2[3] == 2 * z1[3]

    def test_stacked_vertex_off_by_one(self, tet_flat):
        # an explicit raise, not an assert, so it also holds under python -O
        shifted = {node: v + 1 for node, v in tet_flat.stacked_vertex.items()}
        bad = dataclasses.replace(tet_flat, stacked_vertex=shifted)
        with pytest.raises(StageInvariantError) as info:
            lift_heights(bad, {0: F(16, 9)})
        assert info.value.stage == "lifting"


class TestStresses:
    def test_tetrahedron_values(self, tet_lifted):
        st = tet_lifted.stresses
        for ridge in [(0, 3), (1, 3), (2, 3)]:
            assert st[ridge] == 4
        for ridge in [(0, 1), (0, 2), (1, 2)]:
            assert st[ridge] == F(-4, 3)

    def test_doubling_shift_doubles_stress(self, tet_flat):
        z = lift_heights(tet_flat, {0: F(32, 9)})
        st = direct_stresses(stress_plan(tet_flat), z)
        assert st[(0, 3)] == 8
        assert st[(0, 1)] == F(-8, 3)

    @pytest.mark.parametrize(
        "d,size,seed", [(3, 14, 0), (3, 15, 1), (3, 16, 2), (4, 9, 3), (4, 10, 4)]
    )
    def test_direct_equals_incremental(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        zeta = vertical_shifts(wt, flat.lam)
        z = lift_heights(flat, zeta)
        direct = direct_stresses(stress_plan(flat), z)
        incremental = incremental_stresses(flat, tree, zeta)
        assert direct == incremental

    def test_incremental_on_arbitrary_shifts(self):
        # agreement is not tied to the balanced shift values
        tree = gen_tree("random", 3, 8, seed=6)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        zeta = {v: F(3 + 2 * i, 7) for i, v in enumerate(flat.interior_order)}
        z = lift_heights(flat, zeta)
        assert direct_stresses(stress_plan(flat), z) == incremental_stresses(
            flat, tree, zeta
        )

    def test_stress_map_cross_check_catches_mismatch(self, tet_flat, tet_weighted):
        z = lift_heights(tet_flat, {0: F(16, 9)})
        with pytest.raises(StageInvariantError):
            stress_map(
                tet_flat, stress_plan(tet_flat), z, tet_weighted.tree, {0: F(17, 9)}
            )


class TestLiftGate:
    def test_tetrahedron_extrema(self, tet_lifted, tet_flat):
        info = check_lift_bounds(tet_lifted, tet_flat.R_eff)
        assert info["min_interior_stress"] == 4
        assert info["min_base_stress"] == F(-4, 3)
        assert info["max_base_stress"] == F(-4, 3)

    @pytest.mark.parametrize("d,size,seed", [(3, 20, 5), (4, 10, 6), (5, 7, 7)])
    def test_interior_at_least_lambda(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        lifted = build_lifted(flat, wt)
        info = check_lift_bounds(lifted, flat.R_eff)
        assert info["min_interior_stress"] >= flat.lam >= 1
        assert -flat.R_eff < info["min_base_stress"]
        assert info["max_base_stress"] < 0

    def test_gate_rejects_tampered_stress(self, tet_lifted, tet_flat):
        bad = dict(tet_lifted.stresses)
        bad[(0, 3)] = F(1, 2)
        broken = dataclasses.replace(tet_lifted, stresses=bad)
        with pytest.raises(StageInvariantError):
            check_lift_bounds(broken, tet_flat.R_eff)
