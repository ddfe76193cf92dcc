import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import at, constant, edge_arrays, gfn, make_instance, reference_check
from gronwall import bounds
from gronwall.bounds import (
    BoundResult,
    HorizonKind,
    HypothesisError,
    ProblemInstance,
    compute_bound,
    detect_horizon,
)
from gronwall.cli import HORIZON_GUARD
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


def _check_message(check, v, rule):
    try:
        check(v, "f(t)", rule)
    except HypothesisError as err:
        return str(err)
    return None


class TestCheckMatchesTheReference:
    """``_check``'s one reduction against the nodewise test on every call:
    the same message, or none, for each rule."""

    @settings(max_examples=600, deadline=None)
    @given(edge_arrays())
    @example(np.array([np.nan, -1.0]))  # a NaN minimum would hide the -1
    @example(np.array([-1.0, np.nan, np.nan]))
    @example(np.array([1.0, 1.0 - 1e-12, np.nan]))  # a drop just past NONNEG_TOL
    @example(np.array([np.inf, np.inf, 1.0]))  # inf - inf is NaN
    @example(np.array([np.nan, np.nan]))
    @example(np.array([-0.0, 5e-324]))
    def test_same_message(self, v):
        for rule in ("positive", "nonnegative", "nondecreasing"):
            with np.errstate(all="ignore"):
                want = _check_message(reference_check, v, rule)
                got = _check_message(bounds._check, v, rule)
            assert got == want, (rule, v)


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


class TestBykov:
    def test_zero_datum(self):
        inst = make_instance("bykov", 1.0, 0, 1, 16, a=0.0, b_expr="1", k="1")
        assert (compute_bound(inst).bound.values == 0.0).all()

    def test_bellman_case(self):
        inst = make_instance("bykov", 1.0, 0, 1, 1024, a=1.0, b_expr="1")
        assert compute_bound(inst).bound.values[-1] == pytest.approx(math.e, abs=1e-5)

    def test_double_integral_case(self):
        inst = make_instance("bykov", 1.0, 0, 1, 1024, a=1.0, b_expr="0", k="1")
        out = compute_bound(inst).bound.values
        assert out[-1] == pytest.approx(math.exp(0.5), abs=1e-5)


class TestThm22:
    def test_zero_datum(self):
        br = compute_bound(make_instance("thm22", 2.0, 0, 1, 16, a_expr="0", b_expr="1"))
        assert br.full
        assert (br.bound.values == 0.0).all()

    def test_riccati(self):
        inst = make_instance("thm22", 2.0, 0, 0.9, 1024, a_expr="1", b_expr="1")
        br = compute_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(2.0, abs=1e-3)
        # the bracket never reaches 1 before beta=0.9, so the horizon is full
        assert br.full and br.horizon_time == 0.9
        wide = make_instance("thm22", 2.0, 0, 1.2, 1024, a_expr="1", b_expr="1")
        brw = compute_bound(wide)
        assert abs(brw.horizon_time - 1.0) <= 2 * wide.grid.dt
        assert brw.horizon_kind is HorizonKind.P_BLOW_UP

    def test_kernel_only_blow_up(self):
        inst = make_instance("thm22", 2.0, 0, 2.0, 2048, a_expr="1", b_expr="0", k="1")
        br = compute_bound(inst)
        assert at(br.bound, 1.0) == pytest.approx(2.0, abs=1e-3)
        assert abs(br.horizon_time - math.sqrt(2.0)) <= 2 * inst.grid.dt


class TestThm23:
    def test_zero_datum(self):
        inst = make_instance(
            "thm23", 2.0, 0, 1, 16, a=0.0, b_expr="1", sigma_expr="1"
        )
        br = compute_bound(inst)
        assert (br.bound.values == 0.0).all()

    def test_constant_sigma_no_kernels(self):
        inst = make_instance(
            "thm23", 2.0, 0, 1, 16, a=1.0, b_expr="0", sigma_expr="1"
        )
        br = compute_bound(inst)
        assert br.full
        assert np.abs(br.bound.values - math.e).max() <= 1e-9

    def test_horizon_at_inverse_e(self):
        inst = make_instance(
            "thm23", 2.0, 0, 0.5, 2048, a=1.0, b_expr="1", sigma_expr="1"
        )
        br = compute_bound(inst)
        assert abs(br.horizon_time - 1.0 / math.e) <= 2 * inst.grid.dt


class TestThm24:
    def test_zero_datum(self):
        inst = make_instance("thm24", 2.0, 0, 1, 16, a=0.0, b_expr="1", ks=["1"])
        br = compute_bound(inst)
        assert br.full
        assert (br.bound.values == 0.0).all()

    def test_single_kernel_riccati(self):
        inst = make_instance("thm24", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1"])
        br = compute_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3
        wide = make_instance("thm24", 2.0, 0, 1.2, 1024, a=1.0, b_expr="1", ks=["1"])
        assert abs(compute_bound(wide).horizon_time - 1.0) <= 2 * wide.grid.dt

    def test_two_kernels_horizon(self):
        inst = make_instance(
            "thm24", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1", "1"]
        )
        br = compute_bound(inst)
        assert abs(br.horizon_time - (math.sqrt(3.0) - 1.0)) <= 2 * inst.grid.dt


class TestThm32:
    def test_p_zero(self):
        inst = make_instance("thm32", 0.0, 0, 1, 16, a=1.0, b_expr="1")
        br = compute_bound(inst)
        assert br.full
        assert np.allclose(br.bound.values, 1.0 + inst.grid.nodes, atol=1e-14)

    def test_riccati(self):
        inst = make_instance("thm32", 2.0, 0, 2, 2048, a=1.0, b_expr="1")
        br = compute_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(2.0, abs=1e-4)
        assert abs(br.horizon_time - 1.0) <= 2 * inst.grid.dt

    def test_p_half(self):
        inst = make_instance("thm32", 0.5, 0, 1, 1024, a=1.0, b_expr="1")
        br = compute_bound(inst)
        assert br.full
        assert br.bound.values[-1] == pytest.approx(2.25, abs=1e-5)


class TestThm33:
    def test_constant_a_matches_thm32_bitwise(self):
        for p in (0.0, 0.5, 2.0, 3.0):
            i32 = make_instance("thm32", p, 0, 1, 256, a=0.7, b_expr="1+t", k="0.5")
            i33 = make_instance("thm33", p, 0, 1, 256, a_expr="0.7", b_expr="1+t", k="0.5")
            b32, b33 = compute_bound(i32), compute_bound(i33)
            assert b32.horizon_node == b33.horizon_node
            assert b32.horizon_time == b33.horizon_time
            eq = (b32.bound.values == b33.bound.values) | (
                np.isnan(b32.bound.values) & np.isnan(b33.bound.values)
            )
            assert eq.all()

    def test_p_zero_sloped_datum(self):
        inst = make_instance("thm33", 0.0, 0, 1, 16, a_expr="1+t", b_expr="1")
        br = compute_bound(inst)
        assert np.allclose(br.bound.values, 1.0 + 2.0 * inst.grid.nodes, atol=1e-14)

    def test_golden_ratio_horizon(self):
        inst = make_instance("thm33", 2.0, 0, 1, 2048, a_expr="1+t", b_expr="1")
        br = compute_bound(inst)
        assert at(br.bound, 0.5) == pytest.approx(6.0, abs=1e-3)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert abs(br.horizon_time - golden) <= 2 * inst.grid.dt


class TestThm34:
    def test_single_kernel_riccati(self):
        inst = make_instance("thm34", 2.0, 0, 0.9, 1024, a=1.0, b_expr="1", ks=["1"])
        br = compute_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3

    def test_p_zero_with_multiplier(self):
        inst = make_instance("thm34", 0.0, 0, 1, 16, a=1.0, b_expr="2", ks=["1"])
        br = compute_bound(inst)
        assert np.allclose(br.bound.values, 2.0 * (1.0 + inst.grid.nodes), atol=1e-13)

    def test_zero_kernels(self):
        inst = make_instance("thm34", 2.0, 0, 1, 16, a=1.5, b_expr="1+t", ks=["0"])
        br = compute_bound(inst)
        assert br.full
        assert np.allclose(br.bound.values, 1.5 * (1.0 + inst.grid.nodes), atol=1e-12)


class TestCor35:
    def test_constant_kernel_riccati(self):
        inst = make_instance("cor35", 2.0, 0, 0.9, 1024, a=1.0, k="1")
        br = compute_bound(inst)
        exact = 1.0 / (1.0 - inst.grid.nodes)
        assert np.abs(br.bound.values - exact).max() <= 1e-3

    def test_shifted_kernel_uses_dt(self):
        inst = make_instance("cor35", 2.0, 0, 1.2, 2048, a=1.0, k="t-s")
        br = compute_bound(inst)
        assert at(br.bound, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_triple_kernel_p_zero(self):
        inst = make_instance("cor35", 0.0, 0, 1, 512, a=1.0, h="1")
        br = compute_bound(inst)
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
        b34, b35 = compute_bound(i34), compute_bound(i35)
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
            _assert_identical(compute_bound(i32), compute_bound(i33), i32, i33)

    @pytest.mark.parametrize("p", _SUITE_P["cor35"])
    def test_cor35_is_thm34_with_unit_multiplier(self, p):
        for seed in range(42, 62):
            i35 = dataclasses.replace(random_instance("cor35", seed, m=128), p=p)
            i34 = dataclasses.replace(
                i35, theorem="thm34", b=constant(1.0, i35.grid),
                kernels=KernelSet.iterated([i35.kernels.k, i35.kernels.h]),
            )
            _assert_identical(compute_bound(i35), compute_bound(i34), i35, i34)

    def test_thm32_p0_reduces_to_a_plus_integral(self):
        from gronwall.grid import cumulative_trapezoid

        inst = make_instance("thm32", 0.0, 0, 1, 128, a=0.3, b_expr="exp(t)")
        br = compute_bound(inst)
        direct = 0.3 + cumulative_trapezoid(inst.b).values
        assert (br.bound.values == direct).all()


# Coefficients of the row relations' instances on [0, beta]: the datum a,
# b = c0 + c1 t, k = c2 exp(-(t-s)) (cor35's growing c2 exp(t-s) for the
# iterated rows), h = c3 and, for a datum function, a + c4 t.
_RELATION_DRAWS = st.fixed_dictionaries({
    "p": st.sampled_from((1.5, 2.0, 3.0, 4.0)),
    "m": st.sampled_from((32, 64, 256)),
    "beta": st.floats(0.5, 3.0),
    "a": st.floats(0.1, 1.0),
    "c": st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
})


def _relation_instance(theorem, d, **data):
    c = d["c"]
    data.setdefault("b_expr", f"{c[0]!r} + {c[1]!r}*t")
    return make_instance(theorem, d["p"], 0, d["beta"], d["m"], **data)


def _compared(*results):
    """The nodes on which rows are compared: up to HORIZON_GUARD of the way
    to their earliest horizon time, as ``gronwall convergence`` cuts."""
    g = results[0].bound.grid
    t_cut = min(r.horizon_time for r in results)
    if not all(r.full for r in results):
        t_cut = g.alpha + HORIZON_GUARD * (t_cut - g.alpha)
    return g.nodes <= t_cut


class TestRowRelations:
    """Rows that bound one extremal check each other at round-off: two
    identities, within 1e-11 relative and with the same horizon node, and
    two orderings, within 1e-12 relative."""

    @staticmethod
    def _assert_identity(br, ref):
        assert br.horizon_node == ref.horizon_node
        on = _compared(br, ref)
        x, y = br.bound.values[on], ref.bound.values[on]
        assert (np.abs(x - y) <= 1e-11 * np.abs(y)).all()

    @settings(max_examples=40, deadline=None)
    @given(_RELATION_DRAWS)
    def test_thm22_with_a_constant_datum_is_thm32(self, d):
        c = d["c"]
        pair = {"k": f"{c[2]!r}*exp(-(t-s))", "h": f"{c[3]!r}"}
        thm22 = _relation_instance("thm22", d, a_expr=repr(d["a"]), **pair)
        thm32 = _relation_instance("thm32", d, a=d["a"], **pair)
        self._assert_identity(compute_bound(thm22), compute_bound(thm32))

    @settings(max_examples=40, deadline=None)
    @given(_RELATION_DRAWS)
    def test_thm24_with_unit_b_and_a_constant_datum_is_thm34(self, d):
        c = d["c"]
        ks = [f"{c[2]!r}*exp(t-t1)", f"{c[3]!r}"]
        thm24 = _relation_instance("thm24", d, a=d["a"], b_expr="1", ks=ks)
        thm34 = _relation_instance("thm34", d, a=d["a"], b_expr="1", ks=ks)
        self._assert_identity(compute_bound(thm24), compute_bound(thm34))

    @settings(max_examples=40, deadline=None)
    @given(_RELATION_DRAWS)
    def test_thm22_is_at_most_thm33(self, d):
        c = d["c"]
        data = {"a_expr": f"{d['a']!r} + {c[4]!r}*t", "k": f"{c[2]!r}*exp(-(t-s))",
                "h": f"{c[3]!r}"}
        b22 = compute_bound(_relation_instance("thm22", d, **data))
        b33 = compute_bound(_relation_instance("thm33", d, **data))
        on = _compared(b22, b33)
        x, y = b22.bound.values[on], b33.bound.values[on]
        assert (x <= y + 1e-12 * np.abs(y)).all()

    @settings(max_examples=40, deadline=None)
    @given(_RELATION_DRAWS)
    def test_thm23_with_unit_sigma_is_at_least_e_times_thm32(self, d):
        k = f"{d['c'][2]!r}*exp(-(t-s))"
        b23 = compute_bound(_relation_instance("thm23", d, a=d["a"], sigma_expr="1", k=k))
        b32 = compute_bound(_relation_instance("thm32", d, a=d["a"], k=k))
        on = _compared(b23, b32)
        x, y = b23.bound.values[on], math.e * b32.bound.values[on]
        assert (x >= y - 1e-12 * np.abs(y)).all()


class TestP1Continuity:
    def test_distance_to_bykov_decreases(self):
        ref = compute_bound(make_instance("bykov", 1.0, 0, 0.5, 512, a=1.0, b_expr="1", k="1"))
        dists = []
        for delta in (1e-1, 1e-2, 1e-3):
            inst = make_instance(
                "thm22", 1.0 + delta, 0, 0.5, 512, a_expr="1", b_expr="1", k="1"
            )
            br = compute_bound(inst)
            dists.append(np.abs(br.bound.values - ref.bound.values).max())
        assert dists[0] > dists[1] > dists[2]


class TestDataMonotonicity:
    def test_enlarging_kernel_raises_bound(self):
        base = make_instance("thm32", 2.0, 0, 1.5, 512, a=1.0, b_expr="0.5", k="0.5")
        bigger = make_instance(
            "thm32", 2.0, 0, 1.5, 512, a=1.0, b_expr="0.5", k="0.5 + 0.3*exp(s-t)"
        )
        b0, b1 = compute_bound(base), compute_bound(bigger)
        n = min(b0.horizon_node, b1.horizon_node)
        assert (b1.bound.values[: n + 1] >= b0.bound.values[: n + 1]).all()
        assert b1.horizon_node <= b0.horizon_node

    def test_thm22_bound_nondecreasing(self):
        inst = make_instance(
            "thm22", 2.0, 0, 0.8, 512, a_expr="1+0.5*t", b_expr="0.3+t", k="0.2"
        )
        br = compute_bound(inst)
        assert (np.diff(br.bound.values[: br.horizon_node + 1]) >= 0).all()


class TestHorizonGridConsistency:
    @pytest.mark.parametrize("b_expr", ["1", "exp(t)"])
    def test_refinement_moves_horizon_little(self, b_expr):
        times = {}
        for m in (256, 512):
            inst = make_instance("thm32", 2.0, 0, 2, m, a=1.0, b_expr=b_expr)
            times[m] = compute_bound(inst).horizon_time
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

    @pytest.mark.parametrize("theorem, a, fields, off_grid, message", [
        ("thm22", None, {"a_fn": "1 + t", "b": "1"}, "a_fn", "a(t) must live on the instance grid"),
        ("thm32", 1.0, {"b": "1"}, "b", "b(t) must live on the instance grid"),
        ("thm23", 1.0, {"b": "1", "sigma": "1"}, "sigma",
         "sigma(t) must live on the instance grid"),
        ("bykov", -1.0, {"b": "1"}, None, "bykov requires a >= 0, got -1.0"),
        ("thm32", 1.0, {}, None, "thm32 requires the coefficient b(t)"),
        ("thm23", 1.0, {"b": "1"}, None, "thm23 requires the multiplier sigma(t)"),
        ("thm32", 1.0, {"b": "1", "sigma": "1"}, None, "thm32 takes no sigma(t)"),
    ], ids=["a-grid", "b-grid", "sigma-grid", "bykov-negative-a", "missing-b",
            "missing-sigma", "sigma-off-thm23"])
    def test_instance_data_errors(self, theorem, a, fields, off_grid, message):
        g, other = Grid(0, 1, 8), Grid(0, 1, 16)
        data = {name: gfn(other if name == off_grid else g, src) for name, src in fields.items()}
        p = 1.0 if theorem == "bykov" else 2.0
        with pytest.raises(HypothesisError) as err:
            ProblemInstance(theorem, p, g, a_const=a, **data)
        assert str(err.value) == message

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


_G, _OFF_GRID = Grid(0, 1, 8), Grid(0, 1, 16)
_PAIR_K = KernelSet.pair(Kernel(1, "1"))
_PAIR_H = KernelSet.pair(None, Kernel(2, "1"))
_ITER = KernelSet.iterated([Kernel(1, "1")])
_THEOREM_NAMES = "('bykov', 'thm22', 'thm23', 'thm24', 'thm32', 'thm33', 'thm34', 'cor35')"


@pytest.mark.parametrize("theorem, p, fields, message", [
    ("thm99", 2.0, {"a_const": 1.0, "b": "1"},
     f"unknown theorem 'thm99'; expected one of {_THEOREM_NAMES}"),
    # p
    ("bykov", 2.0, {"a_const": 1.0, "b": "1"}, "bykov is the linear case and requires p = 1"),
    ("thm32", 1.0, {"a_const": 1.0, "b": "1"},
     "thm32 is undefined at p = 1 (the formulas contain 1/(1-p)); "
     "use theorem bykov for the linear case"),
    ("thm22", 0.5, {"a_fn": "1", "b": "1"}, "thm22 requires p > 1, got 0.5"),
    ("thm32", -1.0, {"a_const": 1.0, "b": "1"}, "thm32 requires p >= 0, got -1.0"),
    # datum kind
    ("thm32", 2.0, {"a_fn": "1", "b": "1"}, "thm32 takes a constant datum a"),
    ("thm22", 2.0, {"a_const": 1.0, "b": "1"}, "thm22 takes a datum function a(t)"),
    ("thm24", 2.0, {"a_const": 1.0, "a_fn": "1", "b": "1", "kernels": _ITER},
     "thm24 takes exactly one of a / a(t)"),
    # grids
    ("thm22", 2.0, {"a_fn": ("off", "1 + t"), "b": "1"}, "a(t) must live on the instance grid"),
    ("thm32", 2.0, {"a_const": 1.0, "b": ("off", "1")}, "b(t) must live on the instance grid"),
    ("thm23", 2.0, {"a_const": 1.0, "b": "1", "sigma": ("off", "1")},
     "sigma(t) must live on the instance grid"),
    # datum rules
    ("bykov", 1.0, {"a_const": -1.0, "b": "1"}, "bykov requires a >= 0, got -1.0"),
    ("thm23", 2.0, {"a_const": -1.0, "b": "1", "sigma": "1"}, "thm23 requires a >= 0, got -1.0"),
    ("thm32", 2.0, {"a_const": 0.0, "b": "1"}, "thm32 requires a > 0, got 0.0"),
    ("thm34", 2.0, {"a_const": 0.0, "b": "1", "kernels": _ITER}, "thm34 requires a > 0, got 0.0"),
    ("cor35", 2.0, {"a_const": 0.0}, "cor35 requires a > 0, got 0.0"),
    ("thm22", 2.0, {"a_fn": "t - 0.25", "b": "1"}, "a(t) must be nonnegative; node 0 has -0.25"),
    ("thm22", 2.0, {"a_fn": "t*(1 - t)", "b": "1"},
     "a(t) must be nondecreasing; it drops by 0.015625 between nodes 4 and 5"),
    ("thm33", 2.0, {"a_fn": "t", "b": "1"}, "a(t) must be positive; node 0 has 0.0"),
    ("thm33", 2.0, {"a_fn": "0.25 - t", "b": "1"}, "a(t) must be positive; node 2 has 0.0"),
    ("thm24", 2.0, {"a_const": -1.0, "b": "1", "kernels": _ITER},
     "a(t) must be nonnegative; node 0 has -1.0"),
    ("thm24", 2.0, {"a_fn": "t - 0.5", "b": "1", "kernels": _ITER},
     "a(t) must be nonnegative; node 0 has -0.5"),
    # b
    ("thm32", 2.0, {"a_const": 1.0}, "thm32 requires the coefficient b(t)"),
    ("cor35", 2.0, {"a_const": 1.0, "b": "1"}, "cor35 has no coefficient b(t)"),
    ("thm32", 2.0, {"a_const": 1.0, "b": "0.25 - t"}, "b(t) must be nonnegative; node 3 has -0.125"),
    ("thm24", 2.0, {"a_const": 1.0, "b": "t", "kernels": _ITER},
     "b(t) must be positive; node 0 has 0.0"),
    ("thm24", 2.0, {"a_const": 1.0, "b": "1 + t", "kernels": _ITER},
     "a(t)/b(t) must be nondecreasing; it drops by 0.11111111111111116 between nodes 0 and 1"),
    # sigma
    ("thm23", 2.0, {"a_const": 1.0, "b": "1"}, "thm23 requires the multiplier sigma(t)"),
    ("thm23", 2.0, {"a_const": 1.0, "b": "1", "sigma": "t - 0.5"},
     "sigma(t) must be nonnegative; node 0 has -0.5"),
    ("thm23", 2.0, {"a_const": 1.0, "b": "1", "sigma": "2 - t"},
     "sigma(t) must be nondecreasing; it drops by 0.125 between nodes 0 and 1"),
    ("thm32", 2.0, {"a_const": 1.0, "b": "1", "sigma": "1"}, "thm32 takes no sigma(t)"),
    # kernel form
    ("thm24", 2.0, {"a_const": 1.0, "b": "1"}, "thm24 requires an iterated kernel set k1..kn"),
    ("thm34", 2.0, {"a_const": 1.0, "b": "1", "kernels": _PAIR_K},
     "thm34 requires an iterated kernel set k1..kn"),
    ("thm32", 2.0, {"a_const": 1.0, "b": "1", "kernels": _ITER},
     "thm32 takes the kernel pair {k, h}"),
    ("thm23", 2.0, {"a_const": 1.0, "b": "1", "sigma": "1", "kernels": _PAIR_H},
     "thm23 has no triple-integral kernel h"),
])
def test_every_hypothesis_message_exactly(theorem, p, fields, message):
    data = {}
    for name, value in fields.items():
        if isinstance(value, tuple):
            value = gfn(_OFF_GRID, value[1])
        elif isinstance(value, str):
            value = gfn(_G, value)
        data[name] = value
    with pytest.raises(HypothesisError) as err:
        ProblemInstance(theorem, p, _G, **data)
    assert str(err.value) == message
