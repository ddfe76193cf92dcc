import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at, constant, gfn, make_instance
from gronwall import bounds
from gronwall.bounds import (
    BoundResult,
    HorizonKind,
    HypothesisError,
    ProblemInstance,
    bykov_bound,
    compute_bound,
    cor35_bound,
    detect_horizon,
    lemma21_bound,
    lemma31_bound,
    thm22_bound,
    thm23_bound,
    thm24_bound,
    thm32_bound,
    thm33_bound,
    thm34_bound,
)
from gronwall.grid import Grid, GridFunction
from gronwall.kernels import Kernel, KernelSet
from gronwall.oracle import _SUITE_P, picard_extremal, random_instance


class TestDetectHorizon:
    def test_linear_crossing(self):
        g = Grid(0, 2, 4)
        node, time, kind = detect_horizon(g, 1.25 - g.nodes, None)
        assert node == 2
        assert time == pytest.approx(1.25)
        assert kind is HorizonKind.Q_POSITIVITY

    def test_never_crossing(self):
        g = Grid(0, 1, 4)
        node, time, kind = detect_horizon(g, constant(0.5, g).values, None)
        assert (node, time, kind) == (4, 1.0, HorizonKind.FULL)

    def test_threshold_node_excluded(self):
        g = Grid(0, 1, 2)
        bracket = GridFunction(g, [0.5, 0.2, 0.0])
        node, time, kind = detect_horizon(bracket.grid, bracket.values, None)
        assert node == 1
        assert time == pytest.approx(1.0)
        assert kind is HorizonKind.Q_POSITIVITY

    def test_invalid_at_node_zero(self):
        g = Grid(0, 1, 2)
        with pytest.raises(HypothesisError, match="node 0"):
            detect_horizon(g, GridFunction(g, [-0.1, 1.0, 2.0]).values, None)

    @pytest.mark.parametrize("value, shown", [(0.0, "0.0"), (np.nan, "nan"), (-np.inf, "-inf")])
    def test_invalid_node_zero_prints_a_plain_float(self, value, shown):
        g = Grid(0, 1, 2)
        with pytest.raises(HypothesisError) as err:
            detect_horizon(g, GridFunction(g, [value, 1.0, 2.0]).values, None)
        assert str(err.value) == (
            f"bracket invalid at node 0 (value {shown}): inconsistent instance"
        )

    def test_nonfinite_entry_cuts(self):
        g = Grid(0, 1, 4)
        bracket = GridFunction(g, [1.0, 0.5, np.nan, 0.5, 0.5])
        node, time, _ = detect_horizon(bracket.grid, bracket.values, None)
        assert node == 1
        assert time == pytest.approx(g.nodes[2])


SPECIAL = [1.0, 0.5, 2.0, 1e308, 0.0, -0.0, -1.0, np.nan, np.inf, -np.inf]


def _horizon_reference(g, bracket, bound):
    """detect_horizon, one node at a time."""
    for j in range(g.m + 1):
        ok_bracket = bracket is None or (math.isfinite(bracket[j]) and bracket[j] > 0.0)
        ok_bound = bound is None or math.isfinite(bound[j])
        if not (ok_bracket and ok_bound):
            if j == 0:
                return "raises"
            kind = HorizonKind.OVERFLOW if ok_bracket else HorizonKind.Q_POSITIVITY
            return j - 1, kind
    return g.m, HorizonKind.FULL


class TestHorizonFastPath:
    """detect_horizon's min/max test against the full per-node test."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_one_bad_bracket_node(self, bad, where):
        g = Grid(0, 1, 4)
        bracket = np.array([1.0, 0.5, 2.0, 1e308, 3.0])
        bracket[where] = bad
        assert not bounds._all_valid(bracket, None)
        want = _horizon_reference(g, bracket, None)
        if want == "raises":
            with pytest.raises(HypothesisError, match="bracket invalid at node 0"):
                detect_horizon(g, bracket, None)
        else:
            node, _, kind = detect_horizon(g, bracket, None)
            assert (node, kind) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SPECIAL), min_size=2, max_size=7),
           st.one_of(st.none(), st.lists(st.sampled_from(SPECIAL), min_size=7, max_size=7)))
    def test_agrees_with_the_full_test(self, bracket, bound):
        g = Grid(0, 1, len(bracket) - 1)
        bracket = np.array(bracket)
        bound = None if bound is None else np.array(bound[: len(bracket)])
        want = _horizon_reference(g, bracket, bound)
        full = np.isfinite(bracket).all() and (bracket > 0).all() and (
            bound is None or np.isfinite(bound).all())
        assert bounds._all_valid(bracket, bound) == full
        if want == "raises":
            with pytest.raises(HypothesisError, match="node 0"):
                detect_horizon(g, bracket, bound)
            return
        node, time, kind = detect_horizon(g, bracket, bound)
        assert (node, kind) == want
        if kind is HorizonKind.FULL:
            assert time == g.beta
        elif kind is HorizonKind.OVERFLOW:
            assert time == g.nodes[node]
        else:
            assert g.nodes[node] <= time <= g.nodes[node + 1]

    def test_overflow_at_node_zero_is_named(self):
        g = Grid(0, 1, 2)
        with pytest.raises(HypothesisError) as err:
            detect_horizon(g, np.ones(3), np.array([np.inf, 1.0, 1.0]))
        assert str(err.value) == (
            "bound overflows at node 0 (value inf): the data are past the float range"
        )


class TestOverflowHorizon:
    """A bound ends its horizon at its last finite node, kind OVERFLOW."""

    @pytest.mark.parametrize("theorem,p,span,m,data,node", [
        ("bykov", 1.0, (0, 2), 8, dict(a=1e300, b_expr="1", k="201"), None),
        ("bykov", 1.0, (0.5, 5.5), 16, dict(a=0.0, b_expr="t", k="1", h="exp(t+2)"), 9),
        ("thm32", 0.999, (0.5, 2.5), 8, dict(a=1.0, b_expr="3e8", k="0.5"), 0),
        ("thm32", 0.9, (0.5, 2.5), 8, dict(a=1.0, b_expr="1e31*exp(t)", k="0.5"), None),
    ])
    def test_the_bound_is_finite_up_to_the_horizon(self, theorem, p, span, m, data, node):
        inst = make_instance(theorem, p, *span, m, **data)
        br = compute_bound(inst)
        assert br.horizon_kind is HorizonKind.OVERFLOW
        assert node is None or br.horizon_node == node
        vals = br.bound.values
        assert np.isfinite(vals[: br.horizon_node + 1]).all()
        assert np.isnan(vals[br.horizon_node + 1 :]).all()
        assert br.horizon_time == inst.grid.nodes[br.horizon_node]

    def test_a_finite_bykov_bound_is_full(self):
        inst = make_instance("bykov", 1.0, 0, 2, 8, a=1.0, b_expr="1", k="201")
        br = compute_bound(inst)
        assert (br.horizon_node, br.horizon_time, br.horizon_kind) == (8, 2, HorizonKind.FULL)
        assert np.isfinite(br.bound.values).all()


class TestLemma21:
    def test_all_zero_is_constant(self):
        g = Grid(0, 1, 16)
        out = lemma21_bound(1.0, constant(0.0, g), constant(0.0, g), g)
        assert (out.values == 1.0).all()

    def test_exponential_growth(self):
        g = Grid(0, 1, 1024)
        out = lemma21_bound(1.0, constant(1.0, g), constant(0.0, g), g)
        assert out.values[-1] == pytest.approx(math.e, rel=1e-5)

    def test_pure_forcing(self):
        g = Grid(0, 1, 8)
        out = lemma21_bound(0.0, constant(0.0, g), constant(1.0, g), g)
        assert np.allclose(out.values, g.nodes, atol=1e-14)


class TestLemma31:
    def test_p_zero_linear_growth(self):
        g = Grid(0, 1, 16)
        br = lemma31_bound(1.0, constant(0.0, g), constant(1.0, g), 0.0, g)
        assert br.full
        assert np.allclose(br.bound.values, 1.0 + g.nodes, atol=1e-14)

    def test_riccati_blow_up(self):
        g = Grid(0, 2, 2048)
        br = lemma31_bound(1.0, constant(0.0, g), constant(1.0, g), 2.0, g)
        assert at(br.bound, 0.5) == pytest.approx(2.0, abs=1e-4)
        assert abs(br.horizon_time - 1.0) <= 2 * g.dt
        assert br.horizon_kind is HorizonKind.Q_POSITIVITY

    def test_pure_linear_term(self):
        g = Grid(0, 1, 1024)
        br = lemma31_bound(1.0, constant(1.0, g), constant(0.0, g), 2.0, g)
        assert br.full
        assert br.bound.values[-1] == pytest.approx(math.e, abs=1e-5)

    def test_p_one_rejected(self):
        g = Grid(0, 1, 4)
        with pytest.raises(HypothesisError, match="lemma21"):
            lemma31_bound(1.0, constant(0.0, g), constant(1.0, g), 1.0, g)


class TestBykov:
    def test_zero_datum(self):
        g = Grid(0, 1, 16)
        out = bykov_bound(0.0, constant(1.0, g), Kernel(1, "1"), None, g)
        assert (out.values == 0.0).all()

    def test_bellman_case(self):
        g = Grid(0, 1, 1024)
        out = bykov_bound(1.0, constant(1.0, g), None, None, g)
        assert out.values[-1] == pytest.approx(math.e, abs=1e-5)

    def test_double_integral_case(self):
        g = Grid(0, 1, 1024)
        out = bykov_bound(1.0, constant(0.0, g), Kernel(1, "1"), None, g)
        assert out.values[-1] == pytest.approx(math.exp(0.5), abs=1e-5)

    def test_negative_datum_rejected(self):
        g = Grid(0, 1, 4)
        with pytest.raises(HypothesisError):
            bykov_bound(-1.0, constant(1.0, g), None, None, g)


class TestThm22:
    def test_zero_datum(self):
        br = thm22_bound(make_instance("thm22", 2.0, 0, 1, 16, a_expr="0", b_expr="1"))
        assert br.full
        assert (br.bound.values == 0.0).all()

    def test_riccati(self):
        inst = make_instance("thm22", 2.0, 0, 0.9, 1024, a_expr="1", b_expr="1")
        br = thm22_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(2.0, abs=1e-3)
        # the bracket never reaches 1 before beta=0.9, so the horizon is full
        assert br.full and br.horizon_time == 0.9
        wide = make_instance("thm22", 2.0, 0, 1.2, 1024, a_expr="1", b_expr="1")
        brw = thm22_bound(wide)
        assert abs(brw.horizon_time - 1.0) <= 2 * wide.grid.dt
        assert brw.horizon_kind is HorizonKind.P_BLOW_UP

    def test_kernel_only_blow_up(self):
        inst = make_instance("thm22", 2.0, 0, 2.0, 2048, a_expr="1", b_expr="0", k="1")
        br = thm22_bound(inst)
        assert at(br.bound, 1.0) == pytest.approx(2.0, abs=1e-3)
        assert abs(br.horizon_time - math.sqrt(2.0)) <= 2 * inst.grid.dt


class TestThm23:
    def test_zero_datum(self):
        inst = make_instance(
            "thm23", 2.0, 0, 1, 16, a=0.0, b_expr="1", sigma_expr="1"
        )
        br = thm23_bound(inst)
        assert (br.bound.values == 0.0).all()

    def test_constant_sigma_no_kernels(self):
        inst = make_instance(
            "thm23", 2.0, 0, 1, 16, a=1.0, b_expr="0", sigma_expr="1"
        )
        br = thm23_bound(inst)
        assert br.full
        assert np.abs(br.bound.values - math.e).max() <= 1e-9

    def test_horizon_at_inverse_e(self):
        inst = make_instance(
            "thm23", 2.0, 0, 0.5, 2048, a=1.0, b_expr="1", sigma_expr="1"
        )
        br = thm23_bound(inst)
        assert abs(br.horizon_time - 1.0 / math.e) <= 2 * inst.grid.dt


class TestThm24:
    def test_zero_datum(self):
        inst = make_instance("thm24", 2.0, 0, 1, 16, a=0.0, b_expr="1", ks=["1"])
        br = thm24_bound(inst)
        assert br.full
        assert (br.bound.values == 0.0).all()

    def test_single_kernel_riccati(self):
        inst = make_instance("thm24", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1"])
        br = thm24_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3
        wide = make_instance("thm24", 2.0, 0, 1.2, 1024, a=1.0, b_expr="1", ks=["1"])
        assert abs(thm24_bound(wide).horizon_time - 1.0) <= 2 * wide.grid.dt

    def test_two_kernels_horizon(self):
        inst = make_instance(
            "thm24", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1", "1"]
        )
        br = thm24_bound(inst)
        assert abs(br.horizon_time - (math.sqrt(3.0) - 1.0)) <= 2 * inst.grid.dt


class TestThm32:
    def test_p_zero(self):
        inst = make_instance("thm32", 0.0, 0, 1, 16, a=1.0, b_expr="1")
        br = thm32_bound(inst)
        assert br.full
        assert np.allclose(br.bound.values, 1.0 + inst.grid.nodes, atol=1e-14)

    def test_riccati(self):
        inst = make_instance("thm32", 2.0, 0, 2, 2048, a=1.0, b_expr="1")
        br = thm32_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(2.0, abs=1e-4)
        assert abs(br.horizon_time - 1.0) <= 2 * inst.grid.dt

    def test_p_half(self):
        inst = make_instance("thm32", 0.5, 0, 1, 1024, a=1.0, b_expr="1")
        br = thm32_bound(inst)
        assert br.full
        assert br.bound.values[-1] == pytest.approx(2.25, abs=1e-5)


class TestThm33:
    def test_constant_a_matches_thm32_bitwise(self):
        for p in (0.0, 0.5, 2.0, 3.0):
            i32 = make_instance("thm32", p, 0, 1, 256, a=0.7, b_expr="1+t", k="0.5")
            i33 = make_instance("thm33", p, 0, 1, 256, a_expr="0.7", b_expr="1+t", k="0.5")
            b32, b33 = thm32_bound(i32), thm33_bound(i33)
            assert b32.horizon_node == b33.horizon_node
            assert b32.horizon_time == b33.horizon_time
            eq = (b32.bound.values == b33.bound.values) | (
                np.isnan(b32.bound.values) & np.isnan(b33.bound.values)
            )
            assert eq.all()

    def test_p_zero_sloped_datum(self):
        inst = make_instance("thm33", 0.0, 0, 1, 16, a_expr="1+t", b_expr="1")
        br = thm33_bound(inst)
        assert np.allclose(br.bound.values, 1.0 + 2.0 * inst.grid.nodes, atol=1e-14)

    def test_golden_ratio_horizon(self):
        inst = make_instance("thm33", 2.0, 0, 1, 2048, a_expr="1+t", b_expr="1")
        br = thm33_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(6.0, abs=1e-3)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert abs(br.horizon_time - golden) <= 2 * inst.grid.dt


class TestThm34:
    def test_single_kernel_riccati(self):
        inst = make_instance("thm34", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1"])
        br = thm34_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3

    def test_p_zero_with_multiplier(self):
        inst = make_instance("thm34", 0.0, 0, 1, 16, a=1.0, b_expr="2", ks=["1"])
        br = thm34_bound(inst)
        assert np.allclose(br.bound.values, 2.0 * (1.0 + inst.grid.nodes), atol=1e-13)

    def test_zero_kernels(self):
        inst = make_instance("thm34", 2.0, 0, 1, 16, a=1.5, b_expr="1+t", ks=["0"])
        br = thm34_bound(inst)
        assert br.full
        assert np.allclose(br.bound.values, 1.5 * (1.0 + inst.grid.nodes), atol=1e-12)


class TestCor35:
    def test_constant_kernel_riccati(self):
        inst = make_instance("cor35", 2.0, 0, 0.9, 1024, a=1.0, k="1")
        br = cor35_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3

    def test_shifted_kernel_uses_dt(self):
        inst = make_instance("cor35", 2.0, 0, 1.2, 2048, a=1.0, k="t-s")
        br = cor35_bound(inst)
        assert at(br.bound, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_triple_kernel_p_zero(self):
        inst = make_instance("cor35", 0.0, 0, 1, 512, a=1.0, h="1")
        br = cor35_bound(inst)
        exact = 1.0 + inst.grid.nodes**2 / 2.0
        assert np.abs(br.bound.values - exact).max() <= 1e-5


def _assert_identical(br1, br2, inst1, inst2):
    """Bit-identical bound, horizon and Picard extremal."""
    assert np.array_equal(br1.bound.values, br2.bound.values, equal_nan=True)
    horizon = (br1.horizon_node, br1.horizon_time, br1.horizon_kind)
    assert horizon == (br2.horizon_node, br2.horizon_time, br2.horizon_kind)
    u1, u2 = picard_extremal(inst1).u.values, picard_extremal(inst2).u.values
    assert np.array_equal(u1, u2, equal_nan=True)


class TestReductionChains:
    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_thm34_matches_cor35(self, p):
        k1 = Kernel(1, "t-t1")
        k2 = Kernel(2, "0.1")
        i34 = make_instance("thm34", p, 0, 1, 512, a=1.0, b_expr="1", ks=[k1, k2])
        i35 = make_instance(
            "cor35", p, 0, 1, 512, a=1.0,
            k=Kernel(1, "t-s"), h=Kernel(2, "0.1"),
        )
        b34, b35 = thm34_bound(i34), cor35_bound(i35)
        assert b34.horizon_node == b35.horizon_node
        n = min(b34.horizon_node, b35.horizon_node)
        diff = np.abs(b34.bound.values[: n + 1] - b35.bound.values[: n + 1])
        assert diff.max() <= 1e-9

    @pytest.mark.parametrize("p", _SUITE_P["thm32"])
    def test_thm32_is_thm33_with_constant_datum(self, p):
        for seed in range(42, 62):
            i32 = dataclasses.replace(random_instance("thm32", seed, m=128), p=p)
            i33 = dataclasses.replace(
                i32, theorem="thm33", a_const=None, a_fn=constant(i32.a_const, i32.grid)
            )
            _assert_identical(thm32_bound(i32), thm33_bound(i33), i32, i33)

    @pytest.mark.parametrize("p", _SUITE_P["cor35"])
    def test_cor35_is_thm34_with_unit_multiplier(self, p):
        for seed in range(42, 62):
            i35 = dataclasses.replace(random_instance("cor35", seed, m=128), p=p)
            i34 = dataclasses.replace(
                i35, theorem="thm34", b=constant(1.0, i35.grid),
                kernels=KernelSet.iterated([i35.kernels.k, i35.kernels.h]),
            )
            _assert_identical(cor35_bound(i35), thm34_bound(i34), i35, i34)

    def test_thm32_p0_reduces_to_a_plus_integral(self):
        from gronwall.grid import cumulative_trapezoid

        inst = make_instance("thm32", 0.0, 0, 1, 128, a=0.3, b_expr="exp(t)")
        br = thm32_bound(inst)
        direct = 0.3 + cumulative_trapezoid(inst.b).values
        assert (br.bound.values == direct).all()


class TestP1Continuity:
    def test_distance_to_bykov_decreases(self):
        g = Grid(0, 0.5, 512)
        b = constant(1.0, g)
        ref = bykov_bound(1.0, b, Kernel(1, "1"), None, g)
        dists = []
        for delta in (1e-1, 1e-2, 1e-3):
            inst = make_instance(
                "thm22", 1.0 + delta, 0, 0.5, 512, a_expr="1", b_expr="1", k="1"
            )
            br = thm22_bound(inst)
            dists.append(np.abs(br.bound.values - ref.values).max())
        assert dists[0] > dists[1] > dists[2]


class TestDataMonotonicity:
    def test_enlarging_kernel_raises_bound(self):
        base = make_instance("thm32", 2.0, 0, 1.5, 512, a=1.0, b_expr="0.5", k="0.5")
        bigger = make_instance(
            "thm32", 2.0, 0, 1.5, 512, a=1.0, b_expr="0.5", k="0.5 + 0.3*exp(s-t)"
        )
        b0, b1 = thm32_bound(base), thm32_bound(bigger)
        n = min(b0.horizon_node, b1.horizon_node)
        assert (b1.bound.values[: n + 1] >= b0.bound.values[: n + 1]).all()
        assert b1.horizon_node <= b0.horizon_node

    def test_thm22_bound_nondecreasing(self):
        inst = make_instance(
            "thm22", 2.0, 0, 0.8, 512, a_expr="1+0.5*t", b_expr="0.3+t", k="0.2"
        )
        br = thm22_bound(inst)
        assert (np.diff(br.bound.values[: br.horizon_node + 1]) >= 0).all()


class TestHorizonGridConsistency:
    @pytest.mark.parametrize("b_expr", ["1", "exp(t)"])
    def test_refinement_moves_horizon_little(self, b_expr):
        times = {}
        for m in (256, 512):
            inst = make_instance("thm32", 2.0, 0, 2, m, a=1.0, b_expr=b_expr)
            times[m] = thm32_bound(inst).horizon_time
        coarse_dt = 2.0 / 256
        assert abs(times[256] - times[512]) <= coarse_dt


class TestHypothesisValidation:
    def test_p_one_directs_to_bykov(self):
        with pytest.raises(HypothesisError, match="bykov"):
            make_instance("thm32", 1.0, 0, 1, 8, a=1.0, b_expr="1")

    def test_p_below_one_for_section2(self):
        with pytest.raises(HypothesisError, match="p > 1"):
            make_instance("thm22", 0.5, 0, 1, 8, a_expr="1", b_expr="1")

    def test_negative_p_rejected(self):
        with pytest.raises(HypothesisError, match="p >= 0"):
            make_instance("thm32", -1.0, 0, 1, 8, a=1.0, b_expr="1")

    def test_decreasing_datum_rejected(self):
        with pytest.raises(HypothesisError, match="nondecreasing"):
            make_instance("thm22", 2.0, 0, 1, 8, a_expr="1-t", b_expr="1")

    def test_nonpositive_datum_rejected(self):
        with pytest.raises(HypothesisError, match="a > 0"):
            make_instance("thm32", 2.0, 0, 1, 8, a=0.0, b_expr="1")
        with pytest.raises(HypothesisError, match="positive"):
            make_instance("thm33", 2.0, 0, 1, 8, a_expr="t", b_expr="1")

    def test_thm24_needs_positive_b(self):
        with pytest.raises(HypothesisError, match="b\\(t\\) must be positive"):
            make_instance("thm24", 2.0, 0, 1, 8, a=1.0, b_expr="t", ks=["1"])

    def test_decreasing_ratio_rejected(self):
        with pytest.raises(HypothesisError, match="a\\(t\\)/b\\(t\\)"):
            make_instance("thm24", 2.0, 0, 1, 8, a=1.0, b_expr="1+t", ks=["1"])

    def test_decreasing_sigma_rejected(self):
        with pytest.raises(HypothesisError, match="sigma"):
            make_instance(
                "thm23", 2.0, 0, 1, 8, a=1.0, b_expr="1", sigma_expr="2-t"
            )

    def test_kernel_form_mismatch(self):
        with pytest.raises(HypothesisError, match="iterated"):
            make_instance("thm24", 2.0, 0, 1, 8, a=1.0, b_expr="1", k="1")
        with pytest.raises(HypothesisError, match="pair"):
            make_instance("thm32", 2.0, 0, 1, 8, a=1.0, b_expr="1", ks=["1"])
        with pytest.raises(HypothesisError, match="thm23 has no"):
            make_instance(
                "thm23", 2.0, 0, 1, 8, a=1.0, b_expr="1", sigma_expr="1", h="1"
            )

    def test_cor35_takes_no_b(self):
        with pytest.raises(HypothesisError, match="no coefficient"):
            make_instance("cor35", 2.0, 0, 1, 8, a=1.0, b_expr="1", k="1")

    def test_datum_shape_per_theorem(self):
        with pytest.raises(HypothesisError, match="constant datum"):
            make_instance("thm32", 2.0, 0, 1, 8, a_expr="1", b_expr="1")
        with pytest.raises(HypothesisError, match="datum function"):
            make_instance("thm22", 2.0, 0, 1, 8, a=1.0, b_expr="1")

    def test_unknown_theorem(self):
        with pytest.raises(HypothesisError, match="unknown theorem"):
            make_instance("thm99", 2.0, 0, 1, 8, a=1.0, b_expr="1")

    def test_bykov_requires_p_one(self):
        with pytest.raises(HypothesisError, match="p = 1"):
            make_instance("bykov", 2.0, 0, 1, 8, a=1.0, b_expr="1")


def test_compute_bound_dispatch():
    inst = make_instance("bykov", 1.0, 0, 1, 64, a=1.0, b_expr="1")
    br = compute_bound(inst)
    assert isinstance(br, BoundResult)
    assert br.full
    inst32 = make_instance("thm32", 2.0, 0, 1, 64, a=1.0, b_expr="1")
    assert compute_bound(inst32).bound.values[0] == pytest.approx(1.0)


class TestDatumValues:
    def test_constant_datum_is_built_once_and_read_only(self):
        inst = make_instance("thm32", 2.0, 0, 1, 16, a=0.7, b_expr="1")
        first = inst.a_values
        assert inst.a_values is first
        assert not first.flags.writeable
        assert (first == 0.7).all() and first.shape == (17,)

    def test_datum_function_is_its_samples(self):
        inst = make_instance("thm33", 2.0, 0, 1, 16, a_expr="1 + t", b_expr="1")
        assert inst.a_values is inst.a_fn.values
        assert not inst.a_values.flags.writeable
