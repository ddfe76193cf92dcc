import contextlib
import dataclasses
import importlib.util
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceRhs,
    at,
    check_admissible,
    closed_form,
    constant,
    first_nonfinite_node,
    make_instance,
    reference_picard_extremal,
    rhs_operator,
)
from gronwall import expr, kernels, oracle
from gronwall.bounds import BoundResult, HypothesisError, compute_bound
from gronwall.grid import Grid, GridFunction
from gronwall.kernels import Kernel, KernelError, NegativeKernelError
from gronwall.oracle import (
    DiscreteRhs,
    DominanceReport,
    PicardStatus,
    check_dominance,
    picard_extremal,
    random_instance,
    verify_dominance,
)


class TestRhsOperator:
    def test_trivial_data_returns_datum(self):
        inst = make_instance("thm32", 2.0, 0, 1, 32, a=1.5, b_expr="0")
        out = rhs_operator(inst, constant(3.0, inst.grid))
        assert (out.values == 1.5).all()

    def test_multiplicative_forms_apply_factor(self):
        i23 = make_instance(
            "thm23", 2.0, 0, 1, 32, a=2.0, b_expr="0", sigma_expr="1+t"
        )
        out = rhs_operator(i23, constant(1.0, i23.grid))
        assert np.allclose(out.values, 2.0 * (1.0 + i23.grid.nodes), atol=1e-14)
        i34 = make_instance("thm34", 2.0, 0, 1, 32, a=2.0, b_expr="1+t", ks=["0"])
        out34 = rhs_operator(i34, constant(1.0, i34.grid))
        assert np.allclose(out34.values, 2.0 * (1.0 + i34.grid.nodes), atol=1e-14)

    def test_linear_volterra_rhs(self):
        inst = make_instance("bykov", 1.0, 0, 1, 64, a=1.0, b_expr="1")
        out = rhs_operator(inst, constant(1.0, inst.grid))
        assert np.allclose(out.values, 1.0 + inst.grid.nodes, atol=1e-14)

    def test_riccati_fixed_point(self):
        inst = make_instance("thm32", 2.0, 0, 0.5, 2048, a=1.0, b_expr="1")
        u = closed_form("riccati", inst.grid, a=1.0, b=1.0)
        out = rhs_operator(inst, u)
        assert np.abs(out.values - u.values).max() <= 1e-3

    def test_negative_u_rejected(self):
        inst = make_instance("thm32", 2.0, 0, 1, 16, a=1.0, b_expr="1")
        with pytest.raises(HypothesisError, match="nonnegative"):
            rhs_operator(inst, constant(-1.0, inst.grid))


class TestPicard:
    def test_converges_to_datum_without_integrals(self):
        inst = make_instance("thm32", 2.0, 0, 1, 32, a=2.0, b_expr="0")
        out = picard_extremal(inst)
        assert out.status is PicardStatus.CONVERGED
        assert out.iterations == 1
        assert (out.u.values == 2.0).all()

    def test_linear_volterra_exponential(self):
        inst = make_instance("bykov", 1.0, 0, 1, 1024, a=1.0, b_expr="1")
        out = picard_extremal(inst, tol=1e-10)
        assert out.status is PicardStatus.CONVERGED
        assert out.u.values[-1] == pytest.approx(math.e, abs=1e-5)

    def test_riccati_value(self):
        inst = make_instance("thm32", 2.0, 0, 0.5, 2048, a=1.0, b_expr="1")
        out = picard_extremal(inst)
        assert out.status is PicardStatus.CONVERGED
        assert out.u.values[-1] == pytest.approx(2.0, abs=1e-3)

    def test_blow_up_reports_divergence_and_prefix(self):
        inst = make_instance("thm32", 2.0, 0, 2, 256, a=1.0, b_expr="1")
        out = picard_extremal(inst)
        assert out.status is PicardStatus.DIVERGED
        assert out.diverged_node is not None
        # true blow-up at t = 1 (node 128); the usable prefix ends nearby
        assert 100 <= out.conv_node < 140
        assert np.isfinite(out.u.values[: out.conv_node + 1]).all()

    def test_monotone_iteration(self):
        inst = make_instance(
            "thm32", 2.0, 0, 1, 128, a=0.5, b_expr="0.5+t", k="0.3", h="0.2"
        )
        op = DiscreteRhs(inst)
        u = op(np.zeros(inst.grid.m + 1))
        for _ in range(8):
            un = op(u)
            assert (un >= u).all()
            u = un

    def test_fixed_point_residual(self):
        tol = 1e-10
        inst = make_instance(
            "thm32", 0.5, 0, 1, 256, a=0.7, b_expr="0.4+0.2*t", k="0.6", h="0.3"
        )
        out = picard_extremal(inst, tol=tol)
        rhs = rhs_operator(inst, out.u)
        resid = np.abs(out.u.values - rhs.values)
        assert (resid <= 10 * tol * (1.0 + np.abs(out.u.values))).all()

    def test_full_interval_convergence_for_small_p(self):
        for fam in ("thm32", "thm33"):
            for seed in range(40):
                inst = random_instance(fam, seed, m=64)
                if inst.p > 1:
                    continue
                out = picard_extremal(inst)
                assert out.status is PicardStatus.CONVERGED
                assert out.conv_node == inst.grid.m

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        inst = make_instance("thm32", 2.0, 0, 1, 16, a=1.0, b_expr="1")
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            picard_extremal(inst, tol=tol)

    def test_decreasing_iterate_raises(self, monkeypatch):
        inst = make_instance("thm32", 2.0, 0, 1, 32, a=0.5, b_expr="1", k="0.5")
        sweep = DiscreteRhs.__call__
        calls = []

        def dented(op, u):
            out = sweep(op, u)
            calls.append(None)
            if len(calls) == 3:  # the second Picard sweep drops at node 7
                out[7] = np.nextafter(u[7], -np.inf)
            return out

        monkeypatch.setattr(DiscreteRhs, "__call__", dented)
        with pytest.raises(oracle.OracleError, match="decreased at node 7"):
            picard_extremal(inst)

    def test_max_iter_reported(self):
        inst = make_instance("thm32", 2.0, 0, 0.9, 256, a=1.0, b_expr="1")
        out = picard_extremal(inst, tol=1e-14, max_iter=3)
        assert out.status is PicardStatus.MAX_ITER
        assert out.iterations == 3


class TestAdmissibility:
    def riccati_instance(self):
        return make_instance("thm32", 2.0, 0, 0.5, 512, a=1.0, b_expr="1")

    def test_scaled_extremal_admissible(self):
        inst = self.riccati_instance()
        u = picard_extremal(inst).u
        half = GridFunction(inst.grid, 0.5 * u.values)
        assert check_admissible(inst, half).admissible

    def test_datum_admissible(self):
        inst = make_instance("thm32", 2.0, 0, 1, 128, a=1.0, b_expr="0.5", k="0.5")
        assert check_admissible(inst, constant(1.0, inst.grid)).admissible

    def test_doubled_extremal_inadmissible(self):
        inst = self.riccati_instance()
        u = picard_extremal(inst).u
        double = GridFunction(inst.grid, 2.0 * u.values)
        rep = check_admissible(inst, double)
        assert not rep.admissible
        assert rep.max_defect > 0


class TestVerifyDominance:
    def test_riccati_extremal_second_order_approach(self):
        # The bound here *is* the extremal solution, so the discrete
        # comparison sits exactly on the trapezoid noise floor: the
        # violation is ~2*dt^2 at t=0.5 and shrinks at second order,
        # clearing the 1e-9 dominance gate once the grid is fine enough.
        viol = {}
        for m in (2048, 4096, 16384):
            inst = make_instance("thm32", 2.0, 0, 0.5, m, a=1.0, b_expr="1")
            br = compute_bound(inst)
            out = picard_extremal(inst)
            rep = verify_dominance(out.u, br, out.conv_node)
            viol[m] = rep.max_violation
        assert 3.0 <= viol[2048] / viol[4096] <= 5.0
        inst = make_instance("thm32", 2.0, 0, 0.5, 16384, a=1.0, b_expr="1")
        rep = verify_dominance(
            picard_extremal(inst).u, compute_bound(inst), inst.grid.m
        )
        assert rep.passed
        assert abs(rep.min_margin) <= 1e-8  # margin -> 0: bound is tight here

    def test_zero_function_dominated(self):
        inst = make_instance("thm32", 2.0, 0, 1, 128, a=1.0, b_expr="1", k="0.5")
        br = compute_bound(inst)
        rep = verify_dominance(constant(0.0, inst.grid), br, inst.grid.m)
        assert rep.passed
        assert rep.min_margin >= 1.0  # at least the datum

    def test_corrupted_bound_fails(self):
        inst = make_instance("thm32", 2.0, 0, 0.5, 512, a=1.0, b_expr="1")
        br = compute_bound(inst)
        out = picard_extremal(inst)
        bad = BoundResult(
            GridFunction(inst.grid, 0.5 * br.bound.values),
            br.horizon_node,
            br.horizon_time,
            br.horizon_kind,
        )
        rep = verify_dominance(out.u, bad, out.conv_node)
        assert not rep.passed
        assert rep.max_violation > 0

    def test_cut_labels(self):
        inst = make_instance("thm32", 2.0, 0, 2, 256, a=1.0, b_expr="1")
        br = compute_bound(inst)
        out = picard_extremal(inst)
        rep = verify_dominance(out.u, br, out.conv_node)
        assert rep.cut in ("horizon", "oracle", "none")
        assert rep.compare_node == min(br.horizon_node, out.conv_node)


class TestClosedForms:
    def test_riccati(self):
        g = Grid(0, 0.5, 4)
        u = closed_form("riccati", g, a=1.0, b=1.0)
        assert at(u, 0.5) == pytest.approx(2.0)

    def test_riccati_pole_flagged(self):
        g = Grid(0, 2, 8)
        u = closed_form("riccati", g, a=1.0, b=1.0)
        assert first_nonfinite_node(u) == 4  # t = 1

    def test_linear_exp(self):
        g = Grid(0, 1, 4)
        assert (closed_form("linear_exp", g, a=1.0, b=0.0).values == 1.0).all()

    def test_bernoulli_q1(self):
        g = Grid(0, 1, 4)
        u = closed_form("bernoulli", g, v0=1.0, k=1.0, p=0.0)
        assert np.allclose(u.values, 1.0 + g.nodes, atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            closed_form("cubic", Grid(0, 1, 4))


class TestRandomFamily:
    def test_deterministic(self):
        a = random_instance("thm32", 7, m=32)
        b = random_instance("thm32", 7, m=32)
        assert a.p == b.p
        assert (a.b.values == b.b.values).all()
        assert a.a_const == b.a_const

    def test_respects_family_hypotheses(self):
        for fam in ("thm22", "thm32", "thm33", "cor35"):
            for seed in range(10):
                inst = random_instance(fam, seed, m=16)  # validation runs in ctor
                assert inst.theorem == fam

    def test_dominance_case_summary(self):
        inst = random_instance("thm33", 3, m=64)
        br, outcome, report, nothing_certified = check_dominance(inst)
        assert inst.p in (0.0, 0.5, 2.0, 3.0)
        assert isinstance(report.passed, bool)
        assert report.compare_node == min(br.horizon_node, outcome.conv_node)
        assert nothing_certified is None

    @pytest.mark.parametrize("theorem", oracle.SUITE_FAMILIES)
    def test_kernels_and_p_are_those_of_the_source_strings(self, theorem):
        # The instance is built from templates parsed once; its trees must
        # be the ones that parsing the coefficients' repr gives, and p the
        # one rng.choice over the family's exponents draws.
        shape = "exp(t-s)" if theorem == "cor35" else "exp(-(t-s))"
        ps = oracle._SUITE_P[theorem]
        for seed in range(200):
            inst = random_instance(theorem, seed, m=4)
            rng = np.random.default_rng(seed)
            c = [float(x) for x in rng.uniform(0.0, 1.0, 6)]
            p = float(rng.choice(ps))
            k, h = Kernel(1, f"{c[2]!r}*{shape}"), Kernel(2, repr(c[3]))
            assert inst.kernels.k.body == k.body, (theorem, seed)
            assert inst.kernels.h.body == h.body, (theorem, seed)
            assert hash(inst.kernels.k.body) == hash(k.body)
            assert hash(inst.kernels.h.body) == hash(h.body)
            assert type(inst.p) is float and inst.p == p, (theorem, seed)

    def test_p_is_the_benchmark_draw_past_the_default_seeds(self, monkeypatch):
        # bench/families.suite_draw rebuilds each suite case from its seed
        # with rng.choice; random_instance must make the same draw.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "families.py")
        spec = importlib.util.spec_from_file_location("bench_families", path)
        families = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, families)  # for its dataclasses
        spec.loader.exec_module(families)
        for theorem in oracle.SUITE_FAMILIES:
            for seed in range(500):
                _, p = families.suite_draw(theorem, seed)
                assert random_instance(theorem, seed, m=4).p == p, (theorem, seed)

    def test_instances_at_one_m_share_one_grid(self):
        a = random_instance("thm32", 1, m=16)
        b = random_instance("cor35", 2, m=16)
        assert a.grid is b.grid and a.b.grid is a.grid
        c = random_instance("thm22", 3, m=32)
        assert c.grid == Grid(0.0, 1.0, 32) and c.grid is not a.grid

    def test_makes_no_parse_call(self, monkeypatch):
        def parse(*args):
            raise AssertionError(f"parse{args}")

        for module in (expr, kernels, oracle):
            monkeypatch.setattr(module, "parse", parse)
        for theorem in oracle.SUITE_FAMILIES:
            random_instance(theorem, 42, m=8)


class TestDominanceRegression:
    """Dominance holds at the realistic discretization noise floor.

    The 1e-9 acceptance gate sits below the O(dt^3) trapezoid noise near
    t = alpha for constant-datum families at m = 256 (see the acceptance
    suite); 1e-6 is comfortably above the measured worst case (~1.2e-7)
    and still certifies the bounds to quadrature accuracy.
    """

    def test_all_families_dominate_within_noise_floor(self):
        for fam in ("thm22", "thm32", "thm33", "cor35"):
            for seed in range(25):
                inst = random_instance(fam, seed, m=256)
                br = compute_bound(inst)
                out = picard_extremal(inst)
                n = min(br.horizon_node, out.conv_node)
                viol = out.u.values[: n + 1] - br.bound.values[: n + 1]
                slack = 1e-6 * (1.0 + br.bound.values[: n + 1])
                assert (viol <= slack).all(), (fam, seed, viol.max())


class TestExtremalMonotoneInDatum:
    """The right-hand side is nondecreasing in the datum, so a larger
    datum gives a larger least solution: scaling ``a`` up must not lower
    the Picard extremal on the prefix where both runs converged."""

    @staticmethod
    def converged_prefix(out):
        """The last node that converged below the first escape.  Picard
        measures convergence below the escape only; when node 0 escapes,
        ``conv_node`` still counts the nodes of the sweep before, whose
        values the escaped sweep has replaced with NaN."""
        if out.diverged_node is None:
            return out.conv_node
        return min(out.conv_node, out.diverged_node - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(oracle.SUITE_FAMILIES),
        st.integers(0, 2**32 - 1),
        st.sampled_from((16, 32, 64)),
        st.floats(1.0, 4.0),
    )
    def test_scaling_the_datum_up_never_lowers_the_extremal(self, fam, seed, m, factor):
        inst = random_instance(fam, seed, m=m)
        if inst.a_fn is not None:
            a_fn = GridFunction(inst.grid, factor * inst.a_fn.values)
            scaled = dataclasses.replace(inst, a_fn=a_fn)
        else:
            scaled = dataclasses.replace(inst, a_const=factor * inst.a_const)
        low, high = picard_extremal(inst), picard_extremal(scaled)
        n = min(self.converged_prefix(low), self.converged_prefix(high))
        u, v = low.u.values[: n + 1], high.u.values[: n + 1]
        assert (v >= u - 1e-12 * np.abs(u)).all(), (fam, seed, m, factor)


# --- the right-hand side on chains of running sums -------------------------

# One-variable factors and separable couplings of the kernels drawn below.
FACTORS = ("{v}", "{v}^2", "(1 + {v})", "exp({v})", "exp(-{v})")
COUPLED = ("exp(t - {v})", "exp(-(t - {v}))", "(1 + t*{v})", "(t + {v})", "(1 + {v}*{u})")


@st.composite
def separable_body(draw, arity):
    """A kernel of the given arity that separates into nonnegative factors
    on [0, 1]: a sum of one or two products of the factors above."""
    inner = [f"t{i}" for i in range(1, arity + 1)]
    products = []
    for _ in range(draw(st.integers(1, 2))):
        parts = [repr(draw(st.floats(0.05, 1.0)))]
        for v in draw(st.lists(st.sampled_from(["t", *inner]), unique=True)):
            parts.append(draw(st.sampled_from(FACTORS)).format(v=v))
        if draw(st.booleans()):
            v, u = draw(st.sampled_from(inner)), draw(st.sampled_from(inner))
            parts.append(draw(st.sampled_from(COUPLED)).format(v=v, u=u))
        products.append("*".join(parts))
    return " + ".join(products)


@st.composite
def separable_instances(draw):
    """An instance of any theorem, in its pair or iterated form, whose
    kernels all separate into nonnegative factors."""
    theorem = draw(st.sampled_from(
        ("bykov", "thm22", "thm23", "thm24", "thm32", "thm33", "thm34", "cor35")))
    data = {}
    if theorem in ("thm24", "thm34"):
        n = draw(st.integers(1, 4))
        data["ks"] = [draw(separable_body(i)) for i in range(1, n + 1)]
    else:
        data["k"] = draw(separable_body(1))
        if theorem != "thm23":
            data["h"] = draw(separable_body(2))
    if theorem in ("thm22", "thm33"):
        data["a_expr"] = "0.5 + 0.3*t"
    elif theorem == "thm24":
        data["a_expr"] = "0.5*(1 + t)"
    else:
        data["a"] = 0.6
    if theorem != "cor35":
        data["b_expr"] = "0.4 + 0.2*t"
    if theorem == "thm23":
        data["sigma_expr"] = "1 + t"
    p = {"bykov": 1.0, "thm22": 2.0, "thm23": 3.0, "thm24": 2.0}.get(
        theorem, draw(st.sampled_from((0.0, 0.5, 2.0, 3.0))))
    m = draw(st.integers(3, 12))
    return make_instance(theorem, p, 0, 1, m, **data)


def dense_rhs(inst):
    """``DiscreteRhs`` on the dense maps alone: every kernel assembled as a
    dense map, and without the line that spreads a non-finite w, so that
    the maps spread it themselves."""
    with mock.patch.object(oracle, "_chain", lambda *args: None):
        op = DiscreteRhs(inst)
    assert not op.chains
    op.nan_from = None
    return op


class TestChainRhs:
    @settings(max_examples=200, deadline=None)
    @given(separable_instances(), st.integers(0, 2**32 - 1))
    def test_chains_match_the_dense_maps(self, inst, seed):
        # Also with one infinite node, where the two must fail alike.
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 2.0, inst.grid.m + 1)
        blown = u.copy()
        blown[rng.integers(0, inst.grid.m + 1)] = np.inf
        op, dense_op = DiscreteRhs(inst), dense_rhs(inst)
        assert op.chains and op.A is None and op.C is None
        for x in (u, blown):
            got, dense = op(x), dense_op(x)
            finite = np.isfinite(dense)
            assert (np.isfinite(got) == finite).all()
            got, dense = got[finite], dense[finite]
            assert (np.abs(got - dense) <= 1e-13 * (1.0 + np.abs(dense))).all()

    @pytest.mark.parametrize("body,error,what", [
        ("s - t", NegativeKernelError, "negative"),
        ("log(s)", KernelError, "non-finite"),
    ])
    def test_bad_kernels_raise_the_dense_message(self, body, error, what):
        inst = make_instance("thm32", 2.0, 0, 1, 16, a=1.0, b_expr="1", k=body)
        with pytest.raises(error) as dense:
            kernels._term_map(inst.kernels.k, inst.grid, 0, label="k")
        with pytest.raises(error) as err:
            DiscreteRhs(inst)
        assert str(err.value) == str(dense.value)
        assert f"kernel k is {what}" in str(err.value)


# The iterated families of the benchmark, written out.
ITERATED_FAMILIES = [
    ("thm34", 0.5, dict(a=0.55, b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2", "0.3*t*(t1 + t2)*t3"])),
    ("thm24", 2.0, dict(a_expr="0.275*(1 + 0.2*t)^2*(1 + 0.45*t)", b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2", "0.3*t*(t1 + t2)*t3"])),
    ("thm34", 0.5, dict(a=0.55, b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2"])),
    ("thm24", 2.0, dict(a_expr="0.275*(1 + 0.2*t)^2*(1 + 0.45*t)", b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2"])),
]


class TestChainRhsTraffic:
    """Every suite and benchmark instance builds its right-hand side from
    chains alone: a silent fallback to the dense maps brings back the
    O(m^2) arrays and the O(m^2) mat-vecs of every Picard sweep."""

    def assert_chains_only(self, inst, monkeypatch):
        def dense(k, *args, **kwargs):
            raise AssertionError(f"dense fallback for {k.body}")

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_term_map", dense)
            op = DiscreteRhs(inst)
            assert np.isfinite(op(np.ones(inst.grid.m + 1))).all()
        assert op.chains and op.A is None and op.C is None

    @pytest.mark.parametrize("theorem", oracle.SUITE_FAMILIES)
    def test_suite_instances(self, theorem, monkeypatch):
        for seed in range(42, 46):
            self.assert_chains_only(random_instance(theorem, seed, m=64), monkeypatch)

    @pytest.mark.parametrize("theorem,p,data", ITERATED_FAMILIES)
    def test_iterated_families(self, theorem, p, data, monkeypatch):
        self.assert_chains_only(make_instance(theorem, p, 0, 1, 32, **data), monkeypatch)


class TestNonFiniteWeight:
    # Pins today's non-causal behaviour: one non-finite w = u^p spreads
    # through a dense matrix map (0 * inf) to every node from the first
    # one the matrix reaches, on the chain path as on the dense maps.  A
    # kernel that reads t spreads it to node 0, a t-free kernel of arity
    # >= 2 to node 1 (behind a running sum), and a t-free arity-1 kernel
    # stays causal.  The causal oracle of ROADMAP item 1, landing with the
    # one dominance gate of item 4, flips the first two shapes on purpose.
    @pytest.mark.parametrize("theorem,data,chained,first_bad", [
        ("thm34", dict(a=0.5, b_expr="1", ks=["exp(-(t-s))"]), True, 0),
        ("thm34", dict(a=0.5, b_expr="1", ks=["(t-s)^1.5"]), False, 0),
        ("cor35", dict(a=0.5, k="0.5", h="0.2"), True, 1),
        ("thm34", dict(a=0.5, b_expr="1", ks=["0.5", "0.4*t2"]), True, 1),
        ("thm34", dict(a=0.5, b_expr="1", ks=["0.5"]), True, 10),
        ("thm32", dict(a=0.5, b_expr="1", k="0.5"), True, 10),
        ("thm32", dict(a=0.5, b_expr="1", k="exp(s)"), True, 10),
    ])
    def test_one_inf_spreads_as_on_the_dense_maps(self, theorem, data, chained, first_bad):
        inst = make_instance(theorem, 2.0, 0, 1, 16, **data)
        op = DiscreteRhs(inst)
        assert bool(op.chains) is chained
        u = np.ones(inst.grid.m + 1)
        u[10] = np.inf
        for out in (op(u), dense_rhs(inst)(u)):
            assert np.isfinite(out[:first_bad]).all()
            assert not np.isfinite(out[first_bad:]).any()


# --- bit for bit against the earlier operator call and Picard loop ---------

# ROADMAP item 1's thm24 config: the kernel reads t, so the NaN line sets
# every node, node 0 escapes, and conv_node is the sweep before's 43.
NAN_VERDICT_THM24 = ("thm24", 2.0, dict(
    a_expr="0.5*(1 + t)", b_expr="0.4 + 0.2*t",
    ks=["0.5 + 0.5*exp(t)*exp(t1)*(1 + t1*t1)"]))


def dense_maps(dense):
    """Every kernel as a dense map while in effect, ``nan_from`` kept."""
    if dense:
        return mock.patch.object(oracle, "_chain", lambda *args: None)
    return contextlib.nullcontext()


def outcome_or_error(picard, inst, **kwargs):
    try:
        return picard(inst, **kwargs)
    except oracle.OracleError as err:
        return str(err)


def assert_same_outcome(got, ref):
    if isinstance(ref, str):
        assert got == ref
        return
    assert np.array_equal(got.u.values, ref.u.values, equal_nan=True)
    assert got.status is ref.status
    assert got.conv_node == ref.conv_node
    assert got.iterations == ref.iterations
    assert got.diverged_node == ref.diverged_node


class TestMatchesTheReference:
    """The operator call and the Picard loop are bit for bit the earlier
    ones of ``conftest``, on chains and on the dense maps alike."""

    @settings(max_examples=200, deadline=None)
    @given(separable_instances(), st.booleans(), st.sampled_from((3, 8, oracle.DEFAULT_MAX_ITER)))
    def test_picard(self, inst, dense, max_iter):
        with dense_maps(dense):
            got = outcome_or_error(picard_extremal, inst, max_iter=max_iter)
            ref = outcome_or_error(reference_picard_extremal, inst, max_iter=max_iter)
        assert_same_outcome(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(separable_instances(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_operator(self, inst, dense, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 2.0, inst.grid.m + 1)
        blown = u.copy()
        blown[rng.integers(0, inst.grid.m + 1)] = rng.choice([np.inf, np.nan])
        with dense_maps(dense):
            op, ref = DiscreteRhs(inst), ReferenceRhs(inst)
        for x in (u, blown):
            assert np.array_equal(op(x), ref(x), equal_nan=True)

    def test_node_0_escapes_with_a_stale_conv_node(self):
        theorem, p, data = NAN_VERDICT_THM24
        inst = make_instance(theorem, p, 0, 1, 64, **data)
        got = picard_extremal(inst)
        assert_same_outcome(got, reference_picard_extremal(inst))
        assert got.status is PicardStatus.DIVERGED
        assert (got.diverged_node, got.conv_node) == (0, 43)
        assert np.isnan(got.u.values).all()

    @pytest.mark.parametrize("max_iter,conv_node", [(3, 0), (8, 33), (12, 102)])
    def test_max_iter(self, max_iter, conv_node):
        inst = make_instance("thm32", 2.0, 0, 0.9, 256, a=1.0, b_expr="1")
        got = picard_extremal(inst, max_iter=max_iter)
        assert_same_outcome(got, reference_picard_extremal(inst, max_iter=max_iter))
        assert got.status is PicardStatus.MAX_ITER
        assert (got.iterations, got.conv_node) == (max_iter, conv_node)

    def test_finite_w_whose_sum_overflows(self):
        # The one-reduction test reads an infinite sum, so it must fall
        # through to the exact test, which finds w finite: no NaN line.
        inst = make_instance("thm32", 2.0, 0, 1, 16, a=0.5, b_expr="1", k="exp(-(t-s))")
        op = DiscreteRhs(inst)
        assert op.nan_from == 0
        u = np.ones(inst.grid.m + 1)
        u[[3, 7]] = 1e154
        w = u**2
        with np.errstate(over="ignore"):
            assert np.isfinite(w).all() and not math.isfinite(np.add.reduce(w))
        got = op(u)
        assert np.isfinite(got).all()
        assert np.array_equal(got, ReferenceRhs(inst)(u))

    @pytest.mark.parametrize("iterates,expected", [
        # Node 3 escapes while the prefix has converged; node 4 falls past
        # the escape, so its |delta| bounds conv_node.
        ([[1, 1, 1, 3e12, 3e12], [1, 1, 1, 3e12, 2e12]], (PicardStatus.DIVERGED, 3, 1, 3)),
        # A NaN below the escape does not hide a fall at another node.
        ([[1, np.nan, 1, 1, 1], [0.5, 1, 1, 1, 1]], "decreased at node 0"),
        # The escaped tail stays finite, but its sum overflows.
        ([[1, 1, 1, 1, 1], [1, 1, 1e308, 1e308, 1e308]], (PicardStatus.DIVERGED, 2, 1, 1)),
    ], ids=["tail-falls-past-the-escape", "nan-beside-a-fall", "finite-tail-sum-overflows"])
    def test_scripted_iterates(self, monkeypatch, iterates, expected):
        inst = make_instance("thm32", 2.0, 0, 1, 4, a=1.0, b_expr="1")

        def run(picard):
            queue = [np.array(x, dtype=float) for x in iterates]
            for cls in (DiscreteRhs, ReferenceRhs):
                monkeypatch.setattr(cls, "__call__", lambda op, u: queue.pop(0))
            return outcome_or_error(picard, inst)

        got = run(picard_extremal)
        assert_same_outcome(got, run(reference_picard_extremal))
        if isinstance(expected, str):
            assert expected in got
        else:
            assert (got.status, got.diverged_node, got.iterations, got.conv_node) == expected

    def test_blow_up_to_inf_reads_nan(self):
        # A t-free arity-1 kernel has no NaN line: the tail overflows to inf.
        inst = make_instance("thm32", 2.0, 0, 2, 256, a=1.0, b_expr="1", k="0.5")
        ref = reference_picard_extremal(inst)
        assert_same_outcome(picard_extremal(inst), ref)
        assert np.isnan(ref.u.values).any()
