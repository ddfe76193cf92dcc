import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant, kernel_dt, make_instance, rhs_operator, separated
from gronwall import bounds, cli, expr, kernels, oracle
from gronwall.bounds import ProblemInstance, compute_bound
from gronwall.expr import BinOp, Call, Neg, Num, Var, evaluate, parse, rename_variables, separate
from gronwall.grid import Grid, GridFunction, sample
from gronwall.kernels import (
    Kernel,
    KernelError,
    KernelSet,
    NegativeKernelError,
    apply_Q,
    apply_R,
    compute_B,
)


def gf(g, values):
    return GridFunction(g, np.asarray(values, dtype=float))


class TestKernelType:
    def test_aliases_normalized(self):
        assert Kernel(1, "exp(-(t-s))") == Kernel(1, "exp(-(t-t1))")
        assert Kernel(2, "s*r") == Kernel(2, "t1*t2")

    def test_unknown_variable_rejected(self):
        from gronwall.expr import UnknownVariableError, parse

        with pytest.raises(UnknownVariableError, match="t3"):
            Kernel(1, "t3")
        with pytest.raises(UnknownVariableError, match="r"):
            Kernel(1, "r")  # r only aliases t2, absent at arity 1
        # pre-parsed bodies are checked by the kernel itself
        with pytest.raises(KernelError, match="t2"):
            Kernel(1, parse("t2", {"t2"}))

    def test_arity_positive(self):
        with pytest.raises(KernelError):
            Kernel(0, "1")

    def test_dt_flags(self):
        assert Kernel(1, "t1").dt_is_zero          # no t anywhere
        assert not Kernel(1, "t*t1").dt_is_zero

    def test_dt_body_derived_unless_given(self):
        # the derivative is always derived; giving one is refused
        assert Kernel(1, "t*s").dt_body == parse("t1", {"t1"})
        assert Kernel(2, "exp(t - r)").dt_body == parse("exp(t - t2)", {"t", "t2"})
        with pytest.raises(TypeError):
            Kernel(1, "t*s", dt_body="2*s")

    def test_set_pair_arities(self):
        KernelSet.pair(Kernel(1, "1"), Kernel(2, "1"))
        with pytest.raises(KernelError):
            KernelSet.pair(k=Kernel(2, "1"))
        with pytest.raises(KernelError):
            KernelSet.pair(h=Kernel(1, "1"))

    def test_set_iterated_arity_order(self):
        KernelSet.iterated([Kernel(1, "1"), Kernel(2, "1")])
        with pytest.raises(KernelError):
            KernelSet.iterated([Kernel(2, "1")])
        with pytest.raises(KernelError):
            KernelSet.iterated([Kernel(1, "1")] * 5)


class TestComputeB:
    def test_zero_kernels_return_b_bitwise(self):
        g = Grid(0, 1, 16)
        b = constant(1.0, g)
        for k, h in [(None, None), (Kernel(1, "0"), Kernel(2, "0"))]:
            out = compute_B(b, k, h, g)
            assert (out.values == b.values).all()

    def test_constant_k_gives_t(self):
        g = Grid(0, 1, 8)
        out = compute_B(constant(0.0, g), Kernel(1, "1"), None, g)
        assert np.allclose(out.values, g.nodes, atol=1e-15)

    def test_constant_h_gives_half_t_squared(self):
        g = Grid(0, 1, 512)
        out = compute_B(constant(0.0, g), None, Kernel(2, "1"), g)
        assert out.values[-1] == pytest.approx(0.5, abs=1e-6)

    def test_t_free_h_polynomial(self):
        # h = s*r integrates to t^4/8
        g = Grid(0, 1, 64)
        out = compute_B(constant(0.0, g), None, Kernel(2, "s*r"), g)
        assert out.values[-1] == pytest.approx(1.0 / 8.0, abs=1e-4)

    def test_t_dependent_h(self):
        # h = t*s*r integrates to t^5/8
        g = Grid(0, 1, 64)
        out = compute_B(constant(0.0, g), None, Kernel(2, "t*s*r"), g)
        assert out.values[-1] == pytest.approx(1.0 / 8.0, abs=1e-4)
        mid = g.m // 2
        assert out.values[mid] == pytest.approx(0.5**5 / 8.0, abs=1e-4)

    def test_second_order_convergence(self):
        k = Kernel(1, "exp(-(t-s))")
        errors = {}
        for m in (32, 64, 128, 256):
            g = Grid(0, 1, m)
            out = compute_B(constant(0.0, g), k, None, g)
            errors[m] = abs(out.values[-1] - (1.0 - math.exp(-1.0)))
        for m in (32, 64, 128):
            assert 3.0 <= errors[m] / errors[2 * m] <= 5.0

    def test_negative_kernel_reports_node(self):
        g = Grid(0, 1, 8)
        with pytest.raises(NegativeKernelError, match="node"):
            compute_B(constant(0.0, g), Kernel(1, "s - t"), None, g)

    def test_kernel_negative_only_off_simplex_is_fine(self):
        g = Grid(0, 1, 8)
        out = compute_B(constant(0.0, g), Kernel(1, "t - s"), None, g)
        assert np.allclose(out.values, g.nodes**2 / 2.0, atol=1e-15)

    def test_nonfinite_kernel_rejected(self):
        g = Grid(0, 1, 8)
        with pytest.raises(KernelError, match="non-finite"):
            compute_B(constant(0.0, g), Kernel(1, "1/(t-s)"), None, g)

    @pytest.mark.parametrize("k, h", [(Kernel(2, "1"), None), (None, Kernel(1, "1"))])
    def test_wrong_arity_kernel_rejected(self, k, h):
        g = Grid(0, 1, 8)
        with pytest.raises(KernelError, match="must have arity"):
            compute_B(constant(0.0, g), k, h, g)


class TestComputeB1:
    """thm23's B1 = b + int k: compute_B without h."""

    def test_all_zero(self):
        g = Grid(0, 1, 8)
        assert (compute_B(constant(0.0, g), None, None, g).values == 0.0).all()

    def test_constant_b(self):
        g = Grid(0, 1, 8)
        assert (compute_B(constant(2.0, g), None, None, g).values == 2.0).all()

    def test_exponential_kernel(self):
        g = Grid(0, 1, 1024)
        out = compute_B(constant(0.0, g), Kernel(1, "exp(-(t-s))"), None, g)
        assert out.values[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)


class TestApplyR:
    def test_diagonal_only(self):
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "1")])
        out = apply_R(ks, constant(1.0, g), g)
        assert (out.values == 1.0).all()

    def test_two_constant_kernels(self):
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "1"), Kernel(2, "1")])
        out = apply_R(ks, constant(1.0, g), g)
        assert np.allclose(out.values, 1.0 + g.nodes, atol=1e-15)

    def test_zero_weight(self):
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "t+t1"), Kernel(2, "exp(t2)")])
        out = apply_R(ks, constant(0.0, g), g)
        assert (out.values == 0.0).all()

    def test_depth_two_term(self):
        # k3(t,t1,t2,t3) = 1 contributes t^2/2 for w = 1
        g = Grid(0, 1, 32)
        ks = KernelSet.iterated([Kernel(1, "0"), Kernel(2, "0"), Kernel(3, "1")])
        out = apply_R(ks, constant(1.0, g), g)
        assert np.allclose(out.values, g.nodes**2 / 2.0, atol=1e-12)


class TestApplyQ:
    def test_t_free_kernels_give_zero(self):
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "t1"), Kernel(2, "t1*t2")])
        out = apply_Q(ks, constant(1.0, g), g)
        assert (out.values == 0.0).all()

    def test_linear_t_dependence(self):
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "t - t1")])
        out = apply_Q(ks, constant(1.0, g), g)
        assert np.allclose(out.values, g.nodes, atol=1e-10)

    def test_fd_matches_exact_dt(self):
        # d/dt (t*t1) = t1, so Q[1](t) = int_0^t t1 dt1 = t^2/2 on the nodes
        g = Grid(0, 1, 64)
        out = apply_Q(KernelSet.iterated([Kernel(1, "t*t1")]), constant(1.0, g), g)
        assert np.abs(out.values - g.nodes**2 / 2).max() <= 1e-15

    def test_decreasing_kernel_with_separable_derivative_rejected(self):
        # d/dt exp(-(t-s)) = -exp(-(t-s)) separates with coefficient -1, so
        # the chain refuses it and the dense path names the sample
        g = Grid(0, 1, 8)
        k = Kernel(1, "exp(-(t-s))")
        _, terms = separated(k, 0, use_dt=True)
        assert [coef for coef, _ in terms] == [-1.0]
        message = r"^d/dt of kernel k1 is negative \(-1\.000000e\+00\) at node 0$"
        with pytest.raises(NegativeKernelError, match=message):
            apply_Q(KernelSet.iterated([k]), constant(1.0, g), g)

    def test_decreasing_kernel_that_does_not_separate_rejected(self):
        # d/dt 1/(1+t*s) = -s/(1+t*s)^2: zero at s = 0, negative from node 1
        g = Grid(0, 1, 8)
        k = Kernel(1, "1/(1+t*s)")
        assert separated(k, 0, use_dt=True) is None
        with pytest.raises(NegativeKernelError, match=r"^d/dt of kernel k1 is negative .* 1$"):
            apply_Q(KernelSet.iterated([k]), constant(1.0, g), g)

    def test_nested_derivative_error_names_the_outer_node(self):
        # d/dt (t - t^2 + t1*t2) = 1 - 2t turns negative past t = 0.5: the
        # first sample is the inner (0, 0) entry of outer node 5 (t = 0.625)
        g = Grid(0, 1, 8)
        ks = KernelSet.iterated([Kernel(1, "1"), Kernel(2, "t - t^2 + t1*t2")])
        with pytest.raises(NegativeKernelError, match=r"^d/dt of kernel k2 is negative .* 5$"):
            apply_Q(ks, constant(1.0, g), g)

    def test_depth_two_t_dependent(self):
        # dk2/dt of t^2*t1*t2 is 2t*t1*t2; Q[1](t) = t^5/4
        g = Grid(0, 1, 128)
        ks = KernelSet.iterated([Kernel(1, "0"), Kernel(2, "t^2*t1*t2")])
        out = apply_Q(ks, constant(1.0, g), g)
        assert out.values[-1] == pytest.approx(0.25, abs=1e-4)


class TestKernelDt:
    def test_quadratic(self):
        assert kernel_dt(Kernel(1, "t^2"), (3.0, 0.5)) == pytest.approx(6.0, abs=1e-7)

    def test_t_free(self):
        assert kernel_dt(Kernel(1, "s^2"), (3.0, 0.5)) == pytest.approx(0.0, abs=1e-9)

    def test_exponential(self):
        assert kernel_dt(Kernel(1, "exp(t)"), (0.0, 0.0)) == pytest.approx(1.0, abs=1e-8)

    def test_explicit_dt_wins(self):
        # exact, with no rounding: d/dt (t*s) is s
        k = Kernel(1, "t*s")
        assert kernel_dt(k, (2.0, 0.25)) == 0.25

    def test_point_length_checked(self):
        with pytest.raises(KernelError):
            kernel_dt(Kernel(2, "t"), (1.0, 0.5))


class TestFunctionalProperties:
    def rand_setup(self, seed, n, m=64):
        rng = np.random.default_rng(seed)
        g = Grid(0, 1, m)
        bodies = [
            f"{rng.uniform(0.1, 1):.6f} + {rng.uniform(0, 1):.6f}*t",
            f"{rng.uniform(0.1, 1):.6f}*exp(t-t1) + t2",
            f"{rng.uniform(0.1, 1):.6f} + t1*t3",
        ]
        ks = KernelSet.iterated([Kernel(i, bodies[i - 1]) for i in range(1, n + 1)])
        w1 = gf(g, rng.uniform(0, 2, m + 1))
        w2 = gf(g, rng.uniform(0, 2, m + 1))
        return g, ks, w1, w2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linearity(self, n):
        g, ks, w1, w2 = self.rand_setup(123 + n, n)
        al, be = 1.7, -0.6
        for func in (apply_R, apply_Q):
            lhs = func(ks, gf(g, al * w1.values + be * w2.values), g).values
            rhs = al * func(ks, w1, g).values + be * func(ks, w2, g).values
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monotonicity(self, n):
        g, ks, w1, _ = self.rand_setup(321 + n, n)
        rng = np.random.default_rng(999 + n)
        w2 = gf(g, w1.values + rng.uniform(0, 1, g.m + 1))
        assert (apply_R(ks, w1, g).values <= apply_R(ks, w2, g).values).all()
        assert (apply_Q(ks, w1, g).values <= apply_Q(ks, w2, g).values).all()


# Bodies per arity: one reading t (with its exact d/dt), one reading t1 but
# not t, one reading neither.  Together they reach every map shape: the
# diagonal, the matrix and the running-sum form, at depths 0-4.
BODIES = {
    1: {"t": ("1 + t*t1", "t1"), "t1": ("0.5 + t1^2", None), "inner": ("0.75", None)},
    2: {
        "t": ("exp(t - t1) + t2", "exp(t - t1)"),
        "t1": ("1 + t1*t2", None),
        "inner": ("0.5 + t2^2", None),
    },
    3: {"t": ("t*t3 + t1 + 0.25", "t3"), "t1": ("t1 + t2*t3", None), "inner": ("1 + t2*t3", None)},
    4: {
        "t": ("t*t1 + t4 + 0.1", "t1"),
        "t1": ("t1*t2 + t3*t4", None),
        "inner": ("0.2 + t2 + t3*t4", None),
    },
}
VARIANTS = ("t-exact", "t-fd", "t1", "inner")


def variant_kernel(arity, variant):
    body, dt = BODIES[arity][variant.split("-")[0]]
    k = Kernel(arity, body)
    if variant == "t-exact":
        assert k.dt_body == Kernel(arity, dt).body
    return k


def brute_term(k, w, g, n_diag, use_dt=False, fd=False):
    """The nested trapezoid rule summed directly, one point at a time.

    With ``fd`` the t-derivative is a central difference of the body, so
    the reference does not read the kernel's derived ``dt_body``.
    """
    T, dt = [float(x) for x in g.nodes], g.dt

    def weight(upper, l):
        if upper == 0:
            return 0.0
        return dt / 2.0 if l in (0, upper) else dt

    def value(point):
        ctx = dict(zip(["t"] + [f"t{i}" for i in range(1, k.arity + 1)], point))
        if not use_dt:
            return float(evaluate(k.body, ctx))
        if not fd:
            return float(evaluate(k.dt_body, ctx))
        step = 1e-5 * max(1.0, abs(point[0]))
        up = float(evaluate(k.body, {**ctx, "t": point[0] + step}))
        dn = float(evaluate(k.body, {**ctx, "t": point[0] - step}))
        return (up - dn) / (2.0 * step)

    def nested(point, upper):
        if len(point) == k.arity + 1:
            return value(point) * w[upper]
        return sum(weight(upper, l) * nested(point + (T[l],), l) for l in range(upper + 1))

    return np.array([nested((T[j],) * (1 + n_diag), j) for j in range(g.m + 1)])


class TestBruteForceReference:
    """Every kernel-term path against the nested trapezoid summed in loops."""

    def grid_and_weight(self, n):
        g = Grid(0.3, 1.1, 5 if n < 4 else 4)
        w = np.random.default_rng(7 + n).uniform(0.2, 2.0, g.m + 1)
        return g, w

    def assert_close(self, got, ref, variant):
        # a central difference divides the round-off of its samples by 2e-5
        rtol = 1e-9 if variant == "t-fd" else 1e-13
        assert np.abs(got - ref).max() <= rtol * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("h_variant", VARIANTS)
    @pytest.mark.parametrize("k_variant", VARIANTS)
    def test_compute_B(self, k_variant, h_variant):
        g, _ = self.grid_and_weight(2)
        k, h = variant_kernel(1, k_variant), variant_kernel(2, h_variant)
        b = gf(g, 1.0 + g.nodes)
        ones = np.ones(g.m + 1)
        ref = b.values + brute_term(k, ones, g, 0) + brute_term(h, ones, g, 0)
        self.assert_close(compute_B(b, k, h, g).values, ref, "exact")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_apply_R_and_Q(self, n, variant):
        g, w = self.grid_and_weight(n)
        kernels = [variant_kernel(i, variant) for i in range(1, n + 1)]
        ks = KernelSet.iterated(kernels)
        ref_R = sum(brute_term(k, w, g, 1) for k in kernels)
        fd = variant != "t-exact"
        ref_Q = sum(brute_term(k, w, g, 0, use_dt=True, fd=fd) for k in kernels)
        self.assert_close(apply_R(ks, gf(g, w), g).values, ref_R, "exact")
        self.assert_close(apply_Q(ks, gf(g, w), g).values, ref_Q, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_iterated_rhs_operator(self, n, variant):
        g, u = self.grid_and_weight(n)
        kernels = [variant_kernel(i, variant) for i in range(1, n + 1)]
        ks = KernelSet.iterated(kernels)
        b = gf(g, 2.0 - 0.5 * g.nodes)
        for theorem, p in (("thm24", 2.0), ("thm34", 0.5)):
            inst = ProblemInstance(theorem, p, g, a_const=0.7, b=b, kernels=ks)
            acc = sum(brute_term(k, u**p, g, 0) for k in kernels)
            if theorem == "thm24":
                ref = 0.7 + b.values * acc
            else:
                ref = b.values * (0.7 + acc)
            got = rhs_operator(inst, gf(g, u)).values
            self.assert_close(got, ref, "exact")


# Bodies that do not separate, so only the dense maps compute them: per
# arity one reading t and one not.  Over every n_diag and use_dt they reach
# the diagonal, the matrix and the running-sum shape.
NON_SEPARABLE = [
    (1, "(t-s)^1.5"),
    (1, "exp(t*s)"),
    (2, "1/(1+t*s*r)"),
    (2, "(s-r)^1.5"),
    (3, "exp(t*t1*t2*t3)"),
    (3, "1/(1+t1*t2*t3)"),
]


class TestDenseMapReference:
    """The dense maps of non-separable kernels against ``brute_term``."""

    @pytest.mark.parametrize("arity, body", NON_SEPARABLE)
    def test_term_map_matches_the_nested_rule(self, arity, body):
        k = Kernel(arity, body)
        assert separated(k, 0) is None
        for m in range(3, 7):
            g = Grid(0.2, 1.3, m)
            w = np.random.default_rng(m).uniform(0.2, 2.0, m + 1)
            for n_diag in range(arity + 1):
                for use_dt in (False, True):
                    case = (m, n_diag, use_dt)
                    ref = brute_term(k, w, g, n_diag, use_dt)
                    if (ref < 0).any():
                        # d/dt 1/(1+t*s*r) < 0: the map refuses to build
                        with pytest.raises(NegativeKernelError, match="d/dt of kernel"):
                            kernels._term_map(k, g, n_diag, use_dt)
                        continue
                    got = kernels._term_map(k, g, n_diag, use_dt).apply(w, g)
                    assert (np.abs(got - ref) <= 1e-13 * np.abs(ref)).all(), case

    def test_reference_cases_reach_every_shape(self):
        g = Grid(0.2, 1.3, 4)
        shapes = set()
        for arity, body in NON_SEPARABLE:
            k = Kernel(arity, body)
            for n_diag in range(arity + 1):
                tm = kernels._term_map(k, g, n_diag)
                shapes.add((tm.inner.ndim, tm.cumulative))
        assert shapes == {(1, False), (2, False), (2, True)}


# --- separable kernels: chains of running sums against the dense maps ----

# One-variable factors per slot.  Under use_dt only factors increasing in
# t are drawn, so the t-derivative separates into nonnegative factors too.
T_FACTORS = ("t", "t^2", "(1 + t)", "exp(t)")
INNER_FACTORS = ("{v}", "{v}^2", "(1 + {v})", "exp({v})", "exp(-{v})", "1.5")
COUPLED = ("exp(t - {v})", "exp(-(t - {v}))", "(1 + {v}*{u})", "({v} + {u})")


@st.composite
def separable_terms(draw):
    """(body, arity, n_diag, use_dt) of a kernel term that separates into
    nonnegative factors on a positive grid."""
    arity = draw(st.integers(1, 4))
    n_diag = draw(st.integers(0, arity - 1))
    use_dt = draw(st.booleans())
    reads_t = draw(st.booleans())
    names = [f"t{i}" for i in range(1, arity + 1)]
    coupled = [c for c in COUPLED if "t -" not in c or reads_t]
    if use_dt:
        coupled = [c for c in coupled if "-(t -" not in c]
    products = []
    for _ in range(draw(st.integers(1, 2))):
        parts = [repr(draw(st.floats(0.1, 2.0)))]
        if reads_t:
            parts.append(draw(st.sampled_from(T_FACTORS)))
        for v in draw(st.lists(st.sampled_from(names), unique=True)):
            parts.append(draw(st.sampled_from(INNER_FACTORS)).format(v=v))
        if draw(st.booleans()):
            v, u = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            parts.append(draw(st.sampled_from(coupled)).format(v=v, u=u))
        products.append("*".join(parts))
    return " + ".join(products), arity, n_diag, use_dt


class TestSeparableChain:
    @settings(max_examples=150, deadline=None)
    @given(separable_terms(), st.integers(3, 8), st.integers(0, 2**32 - 1))
    def test_chain_matches_dense(self, term, m, seed):
        body, arity, n_diag, use_dt = term
        k = Kernel(arity, body)
        g = Grid(0.2, 1.3, m)
        w = np.random.default_rng(seed).uniform(0.0, 2.0, m + 1)
        chain = kernels._chain(k, g, n_diag, use_dt)
        assert chain is not None, body
        dense = kernels._term_map(k, g, n_diag, use_dt).apply(w, g)
        got = chain.apply(w, g)
        assert (np.abs(got - dense) <= 1e-13 * (1.0 + np.abs(dense))).all(), body

    def test_negative_kernel_raises_the_dense_message(self):
        g = Grid(0, 1, 8)
        k = Kernel(1, "s - t")
        assert kernels._chain(k, g, 0) is None
        with pytest.raises(NegativeKernelError) as dense:
            kernels._term_map(k, g, 0, label="k")
        with pytest.raises(NegativeKernelError) as err:
            compute_B(constant(0.0, g), k, None, g)
        assert str(err.value) == str(dense.value)
        assert "at node index (1, 0)" in str(err.value)

    def test_mixed_sign_factors_take_the_dense_path(self):
        g = Grid(0, 1, 8)
        k = Kernel(1, "t - s")
        assert kernels._chain(k, g, 0) is None
        ones = np.ones(g.m + 1)
        out = compute_B(constant(0.0, g), k, None, g).values
        assert np.array_equal(out, kernels._term_map(k, g, 0).apply(ones, g))

    @pytest.mark.parametrize("alpha", [700.0, -709.0])
    def test_exponential_factors_out_of_range_take_the_dense_path(self, alpha):
        # e^(+-t) overflows past |t| ~ 709; the running sums would too.
        g = Grid(alpha, alpha + 9.0, 16)
        k = Kernel(1, "exp(-(t-s))")
        assert kernels._chain(k, g, 0) is None
        ones = np.ones(g.m + 1)
        out = compute_B(constant(0.0, g), k, None, g).values
        assert np.isfinite(out).all()
        assert np.array_equal(out, kernels._term_map(k, g, 0).apply(ones, g))

    def test_large_exponential_factors_within_range(self):
        g = Grid(150.0, 159.0, 16)
        k = Kernel(1, "exp(-(t-s))")
        ones = np.ones(g.m + 1)
        chain = kernels._chain(k, g, 0)
        dense = kernels._term_map(k, g, 0).apply(ones, g)
        assert np.abs(chain.apply(ones, g) - dense).max() <= 1e-13 * (1.0 + dense.max())


class TestChainCache:
    def test_sampled_once_per_grid_and_read_only(self):
        k = Kernel(1, "0.3*exp(-(t-s))")
        g = Grid(0, 1, 16)
        chain = kernels._chain(k, g, 0)
        assert kernels._chain(k, g, 0) is chain
        assert kernels._chain(k, Grid(0, 1, 32), 0) is not chain
        assert kernels._chain(k, g, 0, use_dt=True) is not chain
        (part,) = chain.parts
        for f in (part.outer, *part.inner):
            assert not f.flags.writeable

    def test_bound_and_oracle_share_the_chain(self):
        inst = oracle.random_instance("thm32", 42, m=32)
        compute_bound(inst)
        op = oracle.DiscreteRhs(inst)
        g = inst.grid
        k, h = inst.kernels.k, inst.kernels.h
        assert len(op.chains) == 2
        assert op.chains[0] is kernels._chain(k, g, 0)
        assert op.chains[1] is kernels._chain(h, g, 0)

    def test_a_failed_chain_is_remembered(self, monkeypatch):
        k = Kernel(1, "t - s")
        g = Grid(0, 1, 8)
        assert kernels._chain(k, g, 0) is None
        monkeypatch.setattr(kernels, "_sample_chain", None)
        assert kernels._chain(k, g, 0) is None

    @pytest.mark.parametrize("body,arity", [("0.61", 2), ("2*(1 + t*t1)", 1), ("1", 1)])
    def test_unit_factors_are_skipped_bit_for_bit(self, body, arity):
        # A factor or coefficient of exactly 1.0 is left out of the sweep;
        # multiplying by it would change no bit.
        g = Grid(0, 1, 16)
        chain = kernels._chain(Kernel(arity, body), g, 0)
        ones = np.ones(g.m + 1)
        full = tuple(kernels._Part(
            1.0 if coef is None else coef,
            ones if outer is None else outer,
            tuple(ones if f is None else f for f in inner),
        ) for coef, outer, inner in chain.parts)
        assert any(None in (p.coef, p.outer, *p.inner) for p in chain.parts)
        w = np.random.default_rng(3).uniform(0.0, 2.0, g.m + 1)
        assert np.array_equal(chain.apply(w, g), kernels._Chain(full).apply(w, g))

    def test_depth_zero_chain_returns_a_new_array(self):
        g = Grid(0, 1, 8)
        chain = kernels._chain(Kernel(1, "1"), g, 1)
        w = np.linspace(0.0, 1.0, g.m + 1)
        out = chain.apply(w, g)
        assert out is not w and np.array_equal(out, w)


# --- kernels that differ only in a leading coefficient share one shape ---

# Shapes over the canonical names (an alias would make Kernel rebuild the
# tree), parsed once, so that the examples share what each keeps on itself.
SHAPES = [
    (1, parse("exp(-(t-t1))", {"t", "t1"})),
    (1, parse("exp(t-t1)", {"t", "t1"})),
    (1, parse("1 + t*t1", {"t", "t1"})),
    (2, parse("t^2*(1 + t2)", {"t", "t1", "t2"})),
    (2, parse("0.61", ())),
    (1, None),  # a bare Num(c)
]
COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 0.37, 5e-324, -5e-324, 1e-310, 1e-300, 1e300,
                -1e300, math.nan, math.inf, -math.inf]
GRID_SPANS = [(0.0, 1.0), (0.2, 1.3), (150.0, 159.0), (-300.0, -290.0)]


def _fold_pinned_differences(e, pinned):
    """``e`` with each difference of two variables that pinning turns into
    ``t - t`` replaced by 0.0, its value at every node."""
    if isinstance(e, BinOp):
        names = {"t", *pinned}
        if (e.op == "-" and e.free & pinned and isinstance(e.left, Var)
                and isinstance(e.right, Var) and e.free <= names):
            return Num(0.0)
        return BinOp(e.op, *(_fold_pinned_differences(x, pinned) for x in (e.left, e.right)))
    if isinstance(e, Neg):
        return Neg(_fold_pinned_differences(e.operand, pinned))
    if isinstance(e, Call):
        return Call(e.func, _fold_pinned_differences(e.arg, pinned))
    return e


def _whole_body_plan(k, n_diag, use_dt):
    """``(slots, expr.separate(...))`` of the whole pinned term body, or None;
    the differences that pinning makes ``t - t`` fold to 0.0 first."""
    pinned = {f"t{i}" for i in range(1, n_diag + 1)}
    body = _fold_pinned_differences(k.dt_body if use_dt else k.body, pinned)
    names = [f"t{i}" for i in range(1, k.arity + 1)]
    body = rename_variables(body, dict.fromkeys(names[:n_diag], "t"))
    slots = ["t", *names[n_diag:]]
    terms = separate(body, slots)
    return None if terms is None else (slots, terms)


def _whole_body_parts(k, g, n_diag, use_dt):
    """The chain's ``(coef, outer, inner)`` parts as the whole pinned term
    body gives them: every factor of its plan but the unit evaluated and
    checked in turn; None where no chain is taken."""
    plan = _whole_body_plan(k, n_diag, use_dt)
    if plan is None:
        return None
    slots, terms = plan
    parts = []
    for coef, factors in terms:
        if not 0.0 <= coef < np.inf:
            return None
        rows, spans = [], np.zeros(len(slots))
        for i, v in enumerate(slots):
            if factors[v] == Num(1.0):
                rows.append(None)
                continue
            rows.append(evaluate(factors[v], {v: g.nodes}))
            span = kernels._log2_span(rows[-1])
            if span is None:
                return None
            spans[i] = span
        if spans.sum() + (abs(np.log2(coef)) if coef > 0 else 0.0) > kernels.SAFE_LOG2:
            return None
        parts.append((None if coef == 1.0 else coef, rows[0], tuple(rows[:0:-1])))
    return parts


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


class TestSharedShapes:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SHAPES), st.one_of(st.sampled_from(COEFFICIENTS), st.floats()),
           st.sampled_from(GRID_SPANS), st.integers(3, 8))
    def test_plan_and_chain_are_the_whole_body_ones_bit_for_bit(self, shape, c, span, m):
        arity, S = shape
        k = Kernel(arity, Num(c) if S is None else BinOp("*", Num(c), S))
        g = Grid(*span, m)
        for n_diag in range(arity + 1):
            for use_dt in (False, True):
                plan = separated(k, n_diag, use_dt)
                want = _whole_body_plan(k, n_diag, use_dt)
                assert (plan is None) == (want is None), (n_diag, use_dt)
                if plan is not None:
                    assert plan[0] == want[0]
                    assert [_bits(coef) for coef, _ in plan[1]] == [_bits(c) for c, _ in want[1]]
                    assert [f for _, f in plan[1]] == [f for _, f in want[1]]
                chain = kernels._chain(k, g, n_diag, use_dt)
                want = _whole_body_parts(k, g, n_diag, use_dt)
                assert (chain is None) == (want is None), (n_diag, use_dt)
                if chain is None:
                    continue
                assert len(chain.parts) == len(want)
                for (coef, outer, inner), (w_coef, w_outer, w_inner) in zip(chain.parts, want):
                    assert _bits(coef) == _bits(w_coef)
                    assert _bits(outer) == _bits(w_outer)
                    assert list(map(_bits, inner)) == list(map(_bits, w_inner))

    def test_suite_instances_prepare_and_sample_nothing(self, monkeypatch):
        # Every instance of a family shares its kernels' shapes, cor35's k
        # pinned to the diagonal, c2*exp(t-t) = c2*exp(0), included: past
        # the first instance, no term is separated and no factor sampled.
        calls = []

        def separating(body, slots):
            calls.append(("separate", body))
            return separate(body, slots)

        def evaluating(e, ctx):
            calls.append(("evaluate", e))
            return evaluate(e, ctx)

        for theorem in oracle.SUITE_FAMILIES:
            for seed in range(42, 62):
                inst = oracle.random_instance(theorem, seed, m=64)
                with monkeypatch.context() as patch:
                    if seed > 42:
                        patch.setattr(kernels, "separate", separating)
                        patch.setattr(expr, "evaluate", evaluating)
                    compute_bound(inst)
                    oracle.DiscreteRhs(inst)
                assert calls == [], (theorem, seed)

    def test_a_shared_shape_keeps_no_grid_alive(self):
        g = Grid(0.0, 1.0, 24)
        for k in (Kernel(1, BinOp("*", Num(0.3), oracle._DECAYING)), Kernel(2, Num(0.61))):
            assert kernels._chain(k, g, 0) is not None
        gc.disable()
        try:
            grid = weakref.ref(g)
            del g, k
            assert grid() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("theorem,k_expr", [
        ("thm32", "0.5*exp(-(t-s))"),
        ("thm32", "0.5*exp(s)"),  # a one-variable shape
        ("cor35", "0.5*exp(t-s)"),
        ("cor35", "exp(t-s)"),
        ("cor35", "0.5"),
    ])
    def test_a_parsed_kernel_leaves_nothing_behind(self, tmp_path, theorem, k_expr):
        # With the collector off, a reference cycle through what a tree
        # keeps on itself would keep the tree alive.
        a = "b_expr = 1" if theorem == "thm32" else "h_expr = 0.2*t*r"
        path = tmp_path / "c.cfg"
        path.write_text(f"[problem]\ntheorem = {theorem}\np = 2\nalpha = 0\nbeta = 1\n"
                        f"a = 1\n{a}\nk_expr = {k_expr}\n[grid]\nm = 16\n")
        gc.disable()
        try:
            inst = cli.load_config(str(path)).build_instance()
            compute_bound(inst)
            oracle.DiscreteRhs(inst)
            bodies = [weakref.ref(k.body) for k in inst.kernels.kernels if k is not None]
            del inst
            assert [body() for body in bodies] == [None] * len(bodies)
        finally:
            gc.enable()


# --- terms on the all-ones weight, from the shapes' products on ones ---

PAIR_K_SHAPES = [
    parse("exp(-(t-t1))", {"t", "t1"}),
    parse("exp(t-t1)", {"t", "t1"}),
    parse("1 + t*t1", {"t", "t1"}),  # rank 2
]
PAIR_H_SHAPES = [
    parse("t*(1 + t1*t2)", {"t", "t1", "t2"}),  # rank 2
    parse("t^2*(1 + t2)", {"t", "t1", "t2"}),
    None,  # a bare Num(c)
]
ONES_COEFFICIENTS = st.one_of(st.sampled_from([0.0, 1.0, 0.37]), st.floats(0.0, 10.0))


def _templated(arity, c, S):
    return Kernel(arity, Num(c) if S is None else BinOp("*", Num(c), S))


class TestOnesWeight:
    """compute_B and cor35's R + Q sum each chain's coefficients times its
    shape's products on ones: bit for bit the chains applied to ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PAIR_K_SHAPES), st.sampled_from(PAIR_H_SHAPES),
           ONES_COEFFICIENTS, ONES_COEFFICIENTS, st.integers(1, 40))
    def test_compute_B_is_the_chains_on_ones(self, kS, hS, ck, ch, m):
        g = Grid(0.0, 1.3, m)
        b = gf(g, 0.3 + 0.1 * g.nodes)
        ones = np.ones(g.m + 1)
        # Three kernel pairs over the same shapes: a shape's first use on a
        # grid applies its chain to ones, the later ones sum its products.
        for _ in range(3):
            k, h = _templated(1, ck, kS), _templated(2, ch, hS)
            got = compute_B(b, k, h, g).values
            want = b.values.copy()
            for kern in (k, h):
                # The chain applied to ones, or the dense map where there is
                # no chain (a subnormal coefficient spans past SAFE_LOG2).
                want += kernels._simplex_term(kern, ones, g, 0)
            assert _bits(got) == _bits(want)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PAIR_K_SHAPES[1:]), st.sampled_from(PAIR_H_SHAPES),
           ONES_COEFFICIENTS, ONES_COEFFICIENTS, st.integers(1, 40))
    def test_cor35_R_plus_Q_is_the_chains_on_ones(self, kS, hS, ck, ch, m):
        g = Grid(0.0, 1.3, m)
        ones = gf(g, np.ones(g.m + 1))
        for _ in range(3):
            ks = KernelSet.iterated([_templated(1, ck, kS), _templated(2, ch, hS)])
            got = apply_R(ks, None, g).values + apply_Q(ks, None, g).values
            want = apply_R(ks, ones, g).values + apply_Q(ks, ones, g).values
            assert _bits(got) == _bits(want)

    def test_a_term_without_a_chain_takes_the_dense_map(self):
        g = Grid(0.0, 1.0, 12)
        k = Kernel(1, "0.4*exp(t*s)")  # does not separate
        assert kernels._chain(k, g, 0) is None
        got = compute_B(gf(g, np.zeros(g.m + 1)), k, None, g).values
        want = kernels._term_map(k, g, 0).apply(np.ones(g.m + 1), g)
        assert _bits(got) == _bits(0.0 + want)

    def test_a_suite_bound_runs_one_running_sum(self, monkeypatch):
        # Once a grid's shapes keep their products on ones (from their
        # second use there), a suite instance's bound runs the running sum
        # of its bracket only, and no kernel term.
        calls = []
        counting = lambda v, dt: calls.append(len(v)) or raw(v, dt)  # noqa: E731
        raw = kernels._running_trapezoid_raw
        for theorem in oracle.SUITE_FAMILIES:
            for seed in (40, 41):
                compute_bound(oracle.random_instance(theorem, seed, m=64))
            with monkeypatch.context() as patch:
                for mod in (kernels, bounds):
                    patch.setattr(mod, "_running_trapezoid_raw", counting)
                patch.setattr(kernels, "_simplex_term", None)
                for seed in range(43, 53):
                    compute_bound(oracle.random_instance(theorem, seed, m=64))
                    assert calls == [65], (theorem, seed)
                    calls.clear()

    @pytest.mark.parametrize("k,error,message", [
        ("(t-s)^(-0.5)", KernelError, "kernel k is non-finite at node index (0,)"),
        ("0.5*(t-s)^(-0.5)", KernelError, "kernel k is non-finite at node index (0,)"),
        ("exp(t-s)*(t-s-1)", NegativeKernelError,
         "kernel k is negative (-1.000000e+00) at node index (0,)"),
        ("(t - s)^0.5", KernelError, "d/dt of kernel k is non-finite at node 0"),
    ])
    def test_a_pinned_difference_folds_but_errors_stay(self, k, error, message):
        # R pins s to t; t - t folds to 0, and the kernels that failed on
        # the diagonal still fail with the same error.
        inst = make_instance("cor35", 2.0, 0, 1, 8, a=0.5, k=k, h="0.2")
        with pytest.raises(error) as err:
            compute_bound(inst)
        assert str(err.value) == message


def _stacked_chain(k, g, n_diag, use_dt=False):
    """Reference sampler: every factor of a term evaluated, stacked into one
    array and checked as a whole.  Returns ``[(coef, rows)]`` or None."""
    plan = separated(k, n_diag, use_dt)
    if plan is None:
        return None
    slots, terms = plan
    parts = []
    for coef, factors in terms:
        if not 0.0 <= coef < np.inf:
            return None
        fs = np.empty((len(slots), g.m + 1))
        for i, v in enumerate(slots):
            fs[i] = evaluate(factors[v], {v: g.nodes})
        if not (np.isfinite(fs).all() and (fs >= 0).all()):
            return None
        logs = np.abs(np.log2(fs, out=np.zeros_like(fs), where=fs > 0))
        span = logs.max(axis=1).sum() + (abs(np.log2(coef)) if coef > 0 else 0.0)
        if span > kernels.SAFE_LOG2:
            return None
        parts.append((coef, fs))
    return parts


class TestChainSampling:
    """The sampler against the stacked reference: the same decision and the
    same factor rows, with a unit factor (None) standing for a row of 1.0."""

    def assert_matches_reference(self, k, g, n_diag=0, use_dt=False):
        chain = kernels._chain(k, g, n_diag, use_dt)
        want = _stacked_chain(k, g, n_diag, use_dt)
        assert (chain is None) == (want is None), k.body
        if chain is None:
            return None
        assert len(chain.parts) == len(want)
        ones = np.ones(g.m + 1)
        for (coef, outer, inner), (want_coef, rows) in zip(chain.parts, want):
            assert (1.0 if coef is None else coef) == want_coef
            got = [outer, *inner[::-1]]
            for f, row in zip(got, rows):
                assert np.array_equal(ones if f is None else f, row)
        return chain

    @pytest.mark.parametrize("body,units", [
        ("0.61", [True, True, True]),
        ("0.3*t^2*(1 + r)", [False, True, False]),  # s is not read
    ])
    def test_structural_unit_slots_are_not_sampled(self, body, units):
        chain = self.assert_matches_reference(Kernel(2, body), Grid(0, 1, 16))
        (part,) = chain.parts
        assert [f is None for f in (part.outer, *part.inner[::-1])] == units

    def test_all_ones_factor_is_sampled(self):
        # t^0 is 1.0 everywhere but not the structural unit, so it is kept.
        g = Grid(0, 1, 16)
        chain = self.assert_matches_reference(Kernel(1, "t^0*s"), g)
        (part,) = chain.parts
        assert np.array_equal(part.outer, np.ones(g.m + 1))

    @pytest.mark.parametrize("body,accepted", [("t*exp(-s)", True), ("t^100*exp(-300*s)", False)])
    def test_factor_with_zero_samples(self, body, accepted):
        # t is 0 at node 0, so its span comes from the least positive
        # sample: (1/16)^100 = 2^-400, past SAFE_LOG2 with the 433 of
        # exp(-300*s).
        chain = self.assert_matches_reference(Kernel(1, body), Grid(0, 1, 16))
        assert (chain is not None) == accepted

    @pytest.mark.parametrize("body", ["(t - 2)*s", "log(t)*s", "s/(t - 0.5)", "(t - 2)^0.5*s"])
    def test_negative_or_non_finite_factor_is_rejected(self, body):
        assert self.assert_matches_reference(Kernel(1, body), Grid(0, 1, 16)) is None

    @pytest.mark.parametrize("beta,accepted", [(0.5, True), (1.0, False)])
    def test_span_past_the_safe_range_is_rejected(self, beta, accepted):
        # Each factor spans 300 beta log2(e): 433 in all at beta = 0.5,
        # 866 at beta = 1.
        k = Kernel(1, "exp(300*t)*exp(-300*s)")
        chain = self.assert_matches_reference(k, Grid(0, beta, 16))
        assert (chain is not None) == accepted

    @settings(max_examples=100, deadline=None)
    @given(separable_terms(), st.integers(3, 8))
    def test_random_separable_terms(self, term, m):
        body, arity, n_diag, use_dt = term
        self.assert_matches_reference(Kernel(arity, body), Grid(0.2, 1.3, m), n_diag, use_dt)


# Every kernel of `oracle.random_instance` and of the benchmark's refine and
# iterated families, written out: each must run as a chain, since a silent
# fallback to the dense maps brings back O(m^2) memory and O(m^3) time.
CHAIN_INSTANCES = [
    ("thm22", 2.0, dict(a_expr="0.6 + 0.2*t", b_expr="0.3 + 0.2*t",
                        k="0.37*exp(-(t-s))", h="0.61")),
    ("thm32", 0.5, dict(a=0.6, b_expr="0.3 + 0.2*t", k="0.37*exp(-(t-s))", h="0.61")),
    ("thm33", 3.0, dict(a_expr="0.6 + 0.2*t", b_expr="0.3 + 0.2*t",
                        k="0.37*exp(-(t-s))", h="0.61")),
    ("cor35", 2.0, dict(a=0.6, k="0.37*exp(t-s)", h="0.61")),
    ("cor35", 3.0, dict(a=0.6, k="0.3*exp(t-s)", h="0.3*t^2*(1 + r)")),
    ("thm33", 2.0, dict(a_expr="0.6 + 0.2*t", b_expr="0.3 + 0.2*t",
                        k="0.3*exp(-(t-s))", h="0.3*t^2*(1 + r)")),
    ("thm22", 2.0, dict(a_expr="0.6 + 0.2*t", b_expr="0.3 + 0.2*t",
                        k="0.3*exp(-(t-s))", h="0.3*t^2*(1 + r)")),
    ("thm32", 0.5, dict(a=0.6, b_expr="0.3 + 0.2*t", k="0.3*exp(-(t-s))",
                        h="0.3*t*(1 + s*r)")),
    ("thm34", 0.5, dict(a=0.55, b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2", "0.3*t*(t1 + t2)*t3"])),
    ("thm24", 2.0, dict(a_expr="0.275*(1 + 0.2*t)^2*(1 + 0.45*t)", b_expr="(1 + 0.2*t)^2",
                        ks=["0.5*(1 + t*t1)", "0.4*(t + t1)*t2", "0.3*t*(t1 + t2)*t3"])),
]


class TestChainTraffic:
    @pytest.fixture(autouse=True)
    def no_dense_maps(self, monkeypatch):
        def dense(k, *args, **kwargs):
            raise AssertionError(f"dense fallback for {k.body}")

        monkeypatch.setattr(kernels, "_term_map", dense)

    @pytest.mark.parametrize("theorem,p,data", CHAIN_INSTANCES)
    def test_benchmark_kernels_run_as_chains(self, theorem, p, data):
        br = compute_bound(make_instance(theorem, p, 0, 1, 64, **data))
        assert np.isfinite(br.bound.values[: br.horizon_node + 1]).all()

    @pytest.mark.parametrize("theorem", oracle.SUITE_FAMILIES)
    def test_suite_instances_run_as_chains(self, theorem):
        for seed in range(42, 46):
            compute_bound(oracle.random_instance(theorem, seed, m=64))
