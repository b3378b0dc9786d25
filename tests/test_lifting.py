import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlift import StageInvariantError, gen_tree
from gridlift import lifting
from gridlift.exact import facet_planes, ridge_stresses
from gridlift.flat import build_flat
from gridlift.lifting import (
    adjusted_shifts,
    build_lifted,
    check_lift_bounds,
    direct_stresses,
    incremental_stresses,
    lift_heights,
)
from gridlift.rounding import perturb_flat
from gridlift.trees import balance_weights
from reference import (
    by_ridge,
    check_lifted_rows,
    check_ridge_tables,
    extreme_stresses,
    facet_lookup,
    flat_points,
    homogeneous_row,
    hyperplane_heights,
    reference_stresses,
)

F = Fraction


def fractions(rows):
    """The heights Z / D of lifted rows (D, X..., Z), as Fractions."""
    return [F(r[-1], r[0]) for r in rows]


def lifted(complex_, heights):
    """A complex's points lifted to rational heights, as integer rows."""
    return [homogeneous_row((*p, h)) for p, h in zip(flat_points(complex_), heights)]


def with_stresses(monkeypatch, complex_, stresses):
    """Have both stress routes return one list, a ridge-keyed table's pairs
    by ridge number, so build_lifted's cross-check passes and keeps that
    table's extrema."""
    ordered = [stresses[ridge] for ridge in complex_.ridge_adjacency]
    monkeypatch.setattr(lifting, "direct_stresses", lambda *args: list(ordered))
    monkeypatch.setattr(lifting, "incremental_stresses", lambda *args: list(ordered))


def kernel(complex_, rows):
    """ridge_stresses on a complex lifted to rows: each ridge's stress, or
    the failure that direct_stresses would raise."""
    planes = facet_planes(complex_.d, rows, complex_.facet_table)
    return ridge_stresses(complex_.d, rows, complex_.ridge_adjacency, planes)


class TestVerticalShifts:
    # the shifts are the real ones times bracket_scale^2
    def test_tetrahedron(self, tet_flat):
        assert tet_flat.bracket_scale == 3
        assert adjusted_shifts(tet_flat) == {0: F(16, 9) * 3**2}

    def test_two_stack(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        assert flat.bracket_scale == 6
        zeta = adjusted_shifts(flat)
        assert zeta == {0: 9 * 6**2, 2: F(9, 2) * 6**2}


class TestHeights:
    def test_tetrahedron(self, tet_lifted):
        # the real height 16/9 times bracket_scale^2 = 9, over the apex's
        # column (3, 2, 2)
        rows, _ = tet_lifted
        assert rows == [(1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (3, 2, 2, 48)]

    def test_base_stays_flat(self):
        tree = gen_tree("random", 3, 12, seed=3)
        flat = build_flat(balance_weights(tree))
        rows, _ = build_lifted(flat)
        assert [r[-1] for r in rows[:3]] == [0, 0, 0]
        assert all(r[-1] > 0 for r in rows[3:])
        assert all(r[0] > 0 for r in rows)

    def test_heights_grow_with_shift(self, tet_flat):
        z1 = fractions(lift_heights(tet_flat, {0: 16}))
        z2 = fractions(lift_heights(tet_flat, {0: 32}))
        assert z2[3] == 2 * z1[3]

    def test_nonpositive_shift_is_a_stage_error(self, tet_flat, two_stack_tree):
        # shifts come from the construction, never from input: the error
        # names the first stacking, in preorder, whose shift is not positive
        with pytest.raises(StageInvariantError) as info:
            lift_heights(tet_flat, {0: 0})
        assert info.value.stage == "lifting"
        assert info.value.witness == 0
        flat = build_flat(balance_weights(two_stack_tree))
        with pytest.raises(StageInvariantError) as info:
            lift_heights(flat, {0: 1, 2: -1})
        assert info.value.witness == 2


class TestBarycentricLift:
    @given(
        d=st.sampled_from([3, 4, 5]),
        size=st.integers(1, 8),
        seed=st.integers(0, 50),
        shifts=st.lists(st.fractions(min_value=F(1, 50), max_value=20), min_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_hyperplane_reference(self, d, size, seed, shifts):
        # the rational shifts times the lcm m of their denominators are
        # integers, and heights are linear in the shifts
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        perturbed = perturb_flat(flat)
        zeta = dict(zip(flat.tree.interior_ids, shifts))
        m = math.lcm(*(q.denominator for q in zeta.values()))
        scaled = {v: int(q * m) for v, q in zeta.items()}
        for complex_ in (flat, perturbed):
            assert fractions(lift_heights(complex_, scaled)) == [
                h * m for h in hyperplane_heights(complex_, zeta)
            ]

    @pytest.mark.parametrize("bracket", [0, -1])
    def test_nonpositive_bracket_is_a_stage_error(self, tet_flat, bracket):
        # both complexes' brackets are positive, by construction and through
        # the ratio gate: a zero or negative one names its stacking
        brackets = {**tet_flat.node_brackets, 0: bracket}
        flat = dataclasses.replace(tet_flat, node_brackets=brackets)
        with pytest.raises(StageInvariantError) as info:
            lift_heights(flat, {0: 16})
        assert info.value.stage == "lifting"
        assert info.value.message == f"node 0 has bracket {bracket}, not positive"
        assert info.value.witness == 0

    def test_changed_child_bracket_names_the_stacked_vertex(self):
        # the placement reads only brackets: one child bracket off by one
        # moves the last stacking's vertex off the column the complex holds,
        # and the lift names that vertex before any stress is compared
        flat = build_flat(balance_weights(gen_tree("random", 4, 6, 2)))
        perturbed = perturb_flat(flat)
        node = flat.tree.interior_ids[-1]
        children, facet = flat.tree.children[node], flat.node_facets[node]
        # a child whose facet vertex is not the origin, which weighs nothing
        child = next(c for c, u in zip(children, facet) if u != 0)
        brackets = {**perturbed.node_brackets, child: perturbed.node_brackets[child] + 1}
        tampered = dataclasses.replace(perturbed, node_brackets=brackets)
        p = flat.node_facets[children[0]][0]
        with pytest.raises(StageInvariantError) as info:
            build_lifted(tampered)
        assert info.value.stage == "lifting"
        assert info.value.message.startswith(f"vertex {p} placed off its flat column")
        assert info.value.witness == p


class TestStresses:
    def test_tetrahedron_values(self, tet_lifted, tet_flat):
        # the real stresses 4 and -4/3 times bracket_scale^2 = 9
        st = by_ridge(tet_flat.ridge_adjacency, direct_stresses(tet_flat, tet_lifted[0]))
        for ridge in [(0, 3), (1, 3), (2, 3)]:
            assert st[ridge] == 4 * 9
        for ridge in [(0, 1), (0, 2), (1, 2)]:
            assert st[ridge] == F(-4, 3) * 9

    def test_doubling_shift_doubles_stress(self, tet_flat):
        rows = lift_heights(tet_flat, {0: 32})
        st = by_ridge(tet_flat.ridge_adjacency, direct_stresses(tet_flat, rows))
        assert st[(0, 3)] == 8 * 9
        assert st[(0, 1)] == F(-8, 3) * 9

    @pytest.mark.parametrize(
        "d,size,seed", [(3, 14, 0), (3, 15, 1), (3, 16, 2), (4, 9, 3), (4, 10, 4)]
    )
    def test_direct_equals_incremental(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        zeta = adjusted_shifts(flat)
        rows = lift_heights(flat, zeta)
        direct = direct_stresses(flat, rows)
        incremental = incremental_stresses(flat, zeta)
        assert by_ridge(flat.ridge_adjacency, direct) == by_ridge(
            flat.ridge_adjacency, incremental
        )

    def test_incremental_on_arbitrary_shifts(self):
        # agreement is not tied to the balanced shift values
        tree = gen_tree("random", 3, 8, seed=6)
        wt = balance_weights(tree)
        flat = build_flat(wt)
        zeta = {v: 3 + 2 * i for i, v in enumerate(flat.tree.interior_ids)}
        rows = lift_heights(flat, zeta)
        assert by_ridge(flat.ridge_adjacency, direct_stresses(flat, rows)) == by_ridge(
            flat.ridge_adjacency, incremental_stresses(flat, zeta)
        )

    @pytest.mark.parametrize("d,size,seed", [(3, 1, 0), (3, 12, 1), (4, 8, 2), (6, 5, 3)])
    def test_integer_inputs_stay_exact(self, d, size, seed):
        # integer brackets and shifts, as the rounding stage hands them over:
        # an int / int anywhere here would make a height or stress a float;
        # the exact complex's brackets are integers too, under the scale R
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        pe = perturb_flat(flat)
        for complex_ in (flat, pe):
            assert all(type(b) is int for b in complex_.node_brackets.values())
            assert all(type(x) is int for c in complex_.coords for x in c)
            zeta = adjusted_shifts(complex_)
            assert all(type(v) is int for v in zeta.values())
            rows = lift_heights(complex_, zeta)
            floored = [r[-1] // r[0] for r in rows]
            pairs = [
                *incremental_stresses(complex_, zeta),
                *kernel(complex_, rows),
                *kernel(complex_, lifted(complex_, floored)),
            ]
            values = [*(x for r in rows for x in r), *(x for pair in pairs for x in pair)]
            assert all(type(v) is int for v in values)
            assert all(r[0] > 0 for r in rows)
            assert all(den > 0 for _, den in pairs)


class TestLiftGate:
    # the tetrahedron's ridges in adjacency order: base (1, 2), (0, 2),
    # (0, 1), then interior (2, 3), (1, 3), (0, 3); its lift's stresses are
    # the real ones times bracket_scale^2 = 9
    def test_tetrahedron_extrema(self, tet_lifted, tet_flat):
        rows, extrema = tet_lifted
        info = check_lift_bounds(tet_flat, rows, extrema)
        assert info["min_interior_stress"] == 4
        assert info["min_base_stress"] == F(-4, 3)
        assert info["max_base_stress"] == F(-4, 3)

    @pytest.mark.parametrize("d,size,seed", [(3, 20, 5), (4, 10, 6), (5, 7, 7)])
    def test_interior_at_least_lambda(self, d, size, seed):
        tree = gen_tree("random", d, size, seed)
        flat = build_flat(balance_weights(tree))
        rows, extrema = build_lifted(flat)
        info = check_lift_bounds(flat, rows, extrema)
        lam = F(flat.R_eff, flat.bracket_scale)
        assert info["min_interior_stress"] >= lam >= 1
        assert -flat.R_eff < info["min_base_stress"]
        assert info["max_base_stress"] < 0

    def test_gate_rejects_tampered_stress(self, tet_lifted, tet_flat):
        rows, (_, lo, hi) = tet_lifted
        with pytest.raises(StageInvariantError):
            check_lift_bounds(tet_flat, rows, ((1, 2, (0, 3)), lo, hi))

    def test_gate_names_the_low_vertex(self, two_stack_tree):
        flat = build_flat(balance_weights(two_stack_tree))
        rows, extrema = build_lifted(flat)
        rows = list(rows)
        rows[flat.d + 1] = (*rows[flat.d + 1][:-1], 0)
        with pytest.raises(StageInvariantError) as info:
            check_lift_bounds(flat, rows, extrema)
        assert info.value.stage == "lifting"
        assert info.value.witness == flat.d + 1

    def test_gate_names_the_extreme_ridge(self, tet_lifted, tet_flat):
        # each extremum out of bounds in turn: the gate names its ridge
        for at, pair, ridge in [
            (0, (1, 2), (1, 3)),  # interior stress 1/18
            (1, (-36, 1), (0, 2)),  # least base stress -4 = -R_eff
            (2, (0, 5), (0, 1)),  # greatest base stress 0
        ]:
            rows, extrema = tet_lifted
            extrema = list(extrema)
            extrema[at] = (*pair, ridge)
            with pytest.raises(StageInvariantError) as info:
                check_lift_bounds(tet_flat, rows, tuple(extrema))
            assert info.value.stage == "lifting"
            assert info.value.witness == ridge
            assert f"ridge {ridge} stress {F(*pair) / 9} " in info.value.message

    @pytest.mark.parametrize("interior,base,ok", [
        (F(1), F(-4, 3), True),  # the interior floor 1 is inclusive
        (F(4), F(-4), False),  # base stress at -R_eff
        (F(4), F(0), False),  # base stress at 0
        (F(4), F(-399, 100), True),
    ])
    def test_gate_boundaries(self, tet_lifted, tet_flat, interior, base, ok):
        # one base ridge at `base`, the others at -4/3
        assert tet_flat.R_eff == 4
        rows, _ = tet_lifted
        lo, hi = sorted([base, F(-4, 3)])
        extrema = tuple(
            (w.numerator * 9, w.denominator, ridge)
            for w, ridge in ((interior, (2, 3)), (lo, (1, 2)), (hi, (0, 2)))
        )
        if ok:
            info = check_lift_bounds(tet_flat, rows, extrema)
            assert info["min_interior_stress"] == interior
            assert info["min_base_stress"] == lo
            assert info["max_base_stress"] == hi
        else:
            with pytest.raises(StageInvariantError) as info:
                check_lift_bounds(tet_flat, rows, extrema)
            assert info.value.witness == ((1, 2) if base == lo else (0, 2))


class TestStressExtrema:
    """build_lifted's least interior, least base and greatest base stress,
    kept in its cross-check pass (both routes give each table below), and
    the lift gate's division of them by the scale."""

    def extrema(self, monkeypatch, tet_flat, stresses):
        with_stresses(monkeypatch, tet_flat, stresses)
        return build_lifted(tet_flat)[1]

    def test_tetrahedron(self, tet_lifted):
        # unreduced pairs, as the direct route gives them
        assert tet_lifted[1] == ((576, 16, (2, 3)), (-192, 16, (1, 2)), (-192, 16, (1, 2)))

    def test_ties_go_to_the_first_ridge(self, monkeypatch, tet_flat):
        stresses = {(1, 2): (-1, 1), (0, 2): (-1, 1), (0, 1): (-1, 1),
                    (2, 3): (3, 1), (1, 3): (3, 1), (0, 3): (3, 1)}
        assert self.extrema(monkeypatch, tet_flat, stresses) == (
            (3, 1, (2, 3)), (-1, 1, (1, 2)), (-1, 1, (1, 2))
        )

    def test_ties_between_differently_scaled_pairs(self, monkeypatch, tet_flat):
        # equal values, unequal pairs: the first ridge still wins each tie,
        # and keeps its own pair
        stresses = {(1, 2): (-2, 6), (0, 2): (-7, 21), (0, 1): (-1, 3),
                    (2, 3): (9, 3), (1, 3): (3, 1), (0, 3): (6, 2)}
        assert self.extrema(monkeypatch, tet_flat, stresses) == (
            (9, 3, (2, 3)), (-2, 6, (1, 2)), (-2, 6, (1, 2))
        )
        stresses = {(1, 2): (-7, 21), (0, 2): (-2, 6), (0, 1): (-1, 3),
                    (2, 3): (3, 1), (1, 3): (9, 3), (0, 3): (6, 2)}
        assert self.extrema(monkeypatch, tet_flat, stresses) == (
            (3, 1, (2, 3)), (-7, 21, (1, 2)), (-7, 21, (1, 2))
        )

    def test_negative_stresses(self, monkeypatch, tet_flat):
        # cross-multiplication by positive denominators keeps the order of
        # negative values: -5/2 < -7/3 < -1/1000
        stresses = {(1, 2): (-7, 3), (0, 2): (-5, 2), (0, 1): (-5, 2),
                    (2, 3): (-1, 1000), (1, 3): (-5, 2), (0, 3): (-5, 2)}
        assert self.extrema(monkeypatch, tet_flat, stresses) == (
            (-5, 2, (1, 3)), (-5, 2, (0, 2)), (-7, 3, (1, 2))
        )

    def test_base_and_interior_ridges_are_kept_apart(self, monkeypatch, tet_flat):
        # the least stress overall is interior and the greatest is on the
        # base: neither leaks into the other's extrema
        stresses = {(1, 2): (-2, 1), (0, 2): (5, 1), (0, 1): (-3, 1),
                    (2, 3): (4, 1), (1, 3): (-9, 1), (0, 3): (1, 1)}
        assert self.extrema(monkeypatch, tet_flat, stresses) == (
            (-9, 1, (1, 3)), (-3, 1, (0, 1)), (5, 1, (0, 2))
        )

    def test_gate_names_the_least_of_two_low_ridges(self, monkeypatch, tet_flat):
        # two interior stresses below 1 in real units (times 9): the lift
        # gate names the least one
        lift = direct_stresses(tet_flat, lift_heights(tet_flat, {0: 16}))
        stresses = {**dict(zip(tet_flat.ridge_adjacency, lift)),
                    (2, 3): (1, 2), (1, 3): (2, 6)}
        with_stresses(monkeypatch, tet_flat, stresses)
        with pytest.raises(StageInvariantError) as info:
            check_lift_bounds(tet_flat, *build_lifted(tet_flat))
        assert info.value.stage == "lifting"
        assert info.value.witness == (1, 3)

    def test_extrema_are_divided_by_the_scale(self, tet_lifted, tet_flat):
        # extrema held times 9, in unreduced pairs, come out in real units,
        # reduced, each with its ridge's witness
        rows, _ = tet_lifted
        extrema = ((36, 2, (1, 3)), (-30, 3, (0, 1)), (-6, 6, (1, 2)))
        assert check_lift_bounds(tet_flat, rows, extrema) == {
            "min_interior_stress": F(2),
            "min_base_stress": F(-10, 9),
            "max_base_stress": F(-1, 9),
        }


class TestStressMapCrossCheck:
    """build_lifted's check of the direct stresses against the replay."""

    def test_replay_by_another_shift_is_caught(self, monkeypatch, tet_flat):
        # the tetrahedron's own shift is 16
        original = lifting.incremental_stresses
        monkeypatch.setattr(
            lifting, "incremental_stresses", lambda flat, zeta: original(flat, {0: 17})
        )
        with pytest.raises(StageInvariantError, match="stress mismatch"):
            build_lifted(tet_flat)

    def test_one_numerator_unit_is_caught(self, monkeypatch, tet_flat):
        build_lifted(tet_flat)  # the untampered routes agree
        original = lifting.incremental_stresses
        ridge = (1, 3)

        def off_by_one(*args):
            out = original(*args)
            r = list(tet_flat.ridge_adjacency).index(ridge)
            num, den = out[r]
            out[r] = (num + 1, den)
            return out

        monkeypatch.setattr(lifting, "incremental_stresses", off_by_one)
        with pytest.raises(StageInvariantError, match="stress mismatch") as info:
            build_lifted(tet_flat)
        assert info.value.stage == "lifting"
        assert info.value.witness == ridge

    def test_replay_in_another_order_is_caught(self, monkeypatch, tet_flat):
        # the cross-check pairs the lists by ridge number, so a replay in
        # another ridge order disagrees on the first ridge whose value moved
        original = lifting.incremental_stresses
        monkeypatch.setattr(
            lifting, "incremental_stresses", lambda *args: original(*args)[::-1]
        )
        with pytest.raises(StageInvariantError, match="stress mismatch") as info:
            build_lifted(tet_flat)
        assert info.value.stage == "lifting"
        assert info.value.witness == next(iter(tet_flat.ridge_adjacency))

    def test_short_replay_is_caught(self, monkeypatch, tet_flat):
        # a replay that misses a ridge would leave it unchecked in the zip
        original = lifting.incremental_stresses
        monkeypatch.setattr(
            lifting, "incremental_stresses", lambda *args: original(*args)[:-1]
        )
        with pytest.raises(StageInvariantError, match="stress lists of 6 and 5 ridges") as info:
            build_lifted(tet_flat)
        assert info.value.stage == "lifting"

    def test_equal_values_in_different_terms_pass(self, monkeypatch, tet_flat):
        # the routes need not agree on the pairs, only on their values; the
        # extrema keep the direct route's pairs
        expected = build_lifted(tet_flat)
        original = lifting.incremental_stresses

        def rescaled(*args):
            return [(7 * n, 7 * d) for n, d in original(*args)]

        monkeypatch.setattr(lifting, "incremental_stresses", rescaled)
        assert build_lifted(tet_flat) == expected


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("shape,sizes", [
    ("random", [1, 2, 9, 25]), ("serpentine", [2, 9, 25]), ("balanced_rounds", [1, 2, 3])
])
def test_ridge_numbering_equals_keyed_tables(shape, sizes, d):
    # the walk's ridge table against build_ridge_adjacency, and the replay
    # over ridge numbers against the replay keyed by sorted ridges, on the
    # exact and the perturbed complex; a balanced_rounds size counts rounds
    for size in sizes:
        check_ridge_tables(build_flat(balance_weights(gen_tree(shape, d, size, seed=d))))


def reference_table(complex_, heights):
    """stress_of_ridge on every ridge of a complex lifted by Fraction heights:
    the value, or the GeometryError message."""
    points = [(*p, h) for p, h in zip(flat_points(complex_), heights)]
    return reference_stresses(points, complex_.ridge_adjacency, facet_lookup(complex_))


class TestPairsMatchFractionReferences:
    """The integer-pair lift against the per-vertex and per-ridge Fraction
    definitions, by exact rational equality."""

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize(
        "shape,size", [("random", 9), ("serpentine", 7), ("balanced_rounds", 2)]
    )
    def test_exact_lift_and_perturbed_relift(self, shape, size, d):
        tree = gen_tree(shape, d, size, seed=d)
        flat = build_flat(balance_weights(tree))
        perturbed = perturb_flat(flat)
        for complex_ in (flat, perturbed):
            zeta = adjusted_shifts(complex_)
            rows, extrema = build_lifted(complex_)
            heights = fractions(rows)
            # primitive rows over the complex's own columns; the integer
            # shifts, as a real shift each, give the reference heights
            check_lifted_rows(complex_, zeta, rows)
            expected = reference_table(complex_, heights)
            adjacency = complex_.ridge_adjacency
            assert by_ridge(adjacency, direct_stresses(complex_, rows)) == expected
            # the extrema that the cross-check pass keeps, ties included
            assert [(F(n, den), r) for n, den, r in extrema] == extreme_stresses(
                adjacency, expected
            )
            assert by_ridge(adjacency, incremental_stresses(complex_, zeta)) == expected
            # integer heights, floored from the rows
            floored = [r[-1] // r[0] for r in rows]
            stresses = kernel(complex_, lifted(complex_, floored))
            assert by_ridge(adjacency, stresses) == reference_table(complex_, floored)
