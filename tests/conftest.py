"""Shared test helpers, and test references that the package does not run.

``constant``, ``running_sup``, ``at``, ``first_nonfinite_node``,
``kernel_dt``, ``separated``, ``rhs_operator``, ``check_admissible`` and
``closed_form`` are small oracles that only the tests read: nodewise
helpers, interpolation between nodes, a pointwise kernel
derivative, a kernel term's separation, the instance's right-hand side as
a grid function with its admissibility defect, and analytic solutions of
u' = b u^p.

``ReferenceRhs`` and ``reference_picard_extremal`` keep the operator call
and the Picard loop as they were before their bookkeeping was cut to one
reduction per test (nodewise arrays, ``np.isfinite(w).all()``, ``delta``
as ``|step| / scale``); the package must match them bit for bit.
``reference_log2_span`` and ``reference_check`` keep ``kernels._log2_span``
and ``bounds._check`` as they were before each was cut to one reduction
(``ndarray.max``/``min`` and ``np.log2``; a nodewise test on every call).
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from gronwall import expr
from gronwall.bounds import HypothesisError, ProblemInstance
from gronwall.expr import parse
from gronwall.grid import Grid, GridFunction, _running_trapezoid_raw, sample
from gronwall.kernels import NONNEG_TOL, Kernel, KernelError, KernelSet, _apply_parts
from gronwall.oracle import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DIVERGENCE_LIMIT,
    DiscreteRhs,
    OracleError,
    PicardOutcome,
    PicardStatus,
)

ADMISSIBLE_RTOL = 1e-9

# Values where a reduction and a nodewise test can part: signed zeros,
# subnormals, the neighbours of NONNEG_TOL, NaN, the infinities and the top
# of the float range.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    np.nextafter(NONNEG_TOL, -np.inf), NONNEG_TOL, np.nextafter(NONNEG_TOL, np.inf),
    np.nan, np.inf, -np.inf, 1e308, -1e308, 1.0, 0.5, 2.0,
)


def edge_arrays(min_size=2, max_size=40):
    """Float arrays that mix ``EDGE_FLOATS`` with any float, NaN and
    infinities included."""
    element = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(0.0, 10.0))
    return st.lists(element, min_size=min_size, max_size=max_size).map(np.array)


def gfn(g, source):
    """Sample a t-expression string on a grid."""
    return sample(parse(source, {"t"}), g)


def make_instance(
    theorem,
    p,
    alpha,
    beta,
    m,
    a=None,
    a_expr=None,
    b_expr=None,
    sigma_expr=None,
    k=None,
    h=None,
    ks=None,
):
    """Build a ProblemInstance from expression strings / Kernel objects."""
    g = Grid(alpha, beta, m)
    kernels = None
    if ks is not None:
        built = [
            kern if isinstance(kern, Kernel) else Kernel(i + 1, kern)
            for i, kern in enumerate(ks)
        ]
        kernels = KernelSet.iterated(built)
    elif k is not None or h is not None:
        kk = Kernel(1, k) if isinstance(k, str) else k
        hh = Kernel(2, h) if isinstance(h, str) else h
        kernels = KernelSet.pair(kk, hh)
    return ProblemInstance(
        theorem,
        p,
        g,
        a_const=a,
        a_fn=gfn(g, a_expr) if a_expr is not None else None,
        b=gfn(g, b_expr) if b_expr is not None else None,
        sigma=gfn(g, sigma_expr) if sigma_expr is not None else None,
        kernels=kernels,
    )


def constant(value, g):
    return GridFunction(g, np.full(g.m + 1, float(value)))


def running_sup(f):
    """Nodewise running maximum: out[j] = max(f[0..j])."""
    return GridFunction(f.grid, np.maximum.accumulate(f.values))


def at(f, t):
    """Linear interpolation of ``f`` between nodes, for ``t`` in [alpha, beta]."""
    return float(np.interp(t, f.grid.nodes, f.values))


def first_nonfinite_node(f):
    """The first node where ``f`` is not finite, or None."""
    finite = np.isfinite(f.values)
    return None if finite.all() else int(np.argmin(finite))


def kernel_dt(k, point):
    """d/dt of the kernel at ``point = (t, x1, ..., x_arity)``: its
    ``dt_body`` evaluated there."""
    point = tuple(float(x) for x in point)
    if len(point) != k.arity + 1:
        raise KernelError(
            f"point must have {k.arity + 1} coordinates, got {len(point)}"
        )
    names = ["t", *(f"t{i}" for i in range(1, k.arity + 1))]
    val = expr.evaluate(k.dt_body, dict(zip(names, point)))
    if not np.isfinite(val):
        raise KernelError(f"kernel derivative non-finite at {point}")
    return val


def separated(k, n_diag, use_dt=False):
    """``(slots, expr.separate(...))`` of the kernel's term with the first
    ``n_diag`` inner slots pinned to ``t``, or None, rebuilt from the
    coefficients and shape that the kernel prepares."""
    coefs, shape = k._prepared(n_diag, use_dt)
    if coefs is not None:
        return shape.slots, [(c, f) for c, (_, f) in zip(coefs, shape.terms)]


def rhs_operator(inst, u):
    """Evaluate the instance's right-hand side at every node.

    Non-finite outputs (u^p overflow) are carried in the result and
    flagged through ``first_nonfinite_node``.
    """
    if u.grid != inst.grid:
        raise HypothesisError("u must live on the instance grid")
    if (u.values < 0).any():
        j = int(np.argmax(u.values < 0))
        raise HypothesisError(f"u must be nonnegative; node {j} is {u.values[j]!r}")
    return GridFunction(inst.grid, DiscreteRhs(inst)(u.values))


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    max_defect: float
    worst_node: int


def check_admissible(inst, u):
    """Report how far u exceeds RHS(u); admissible means u <= RHS(u) up to slack."""
    rhs = DiscreteRhs(inst)(u.values)
    defect = u.values - rhs
    slack = ADMISSIBLE_RTOL * (1.0 + np.abs(rhs))
    worst = int(np.argmax(defect - slack))
    return AdmissibilityReport(
        admissible=bool((defect <= slack).all()),
        max_defect=float(defect.max()),
        worst_node=worst,
    )


def closed_form(name, g, **params):
    """Analytic references for u' = b u^p initial-value problems.

    riccati(a, b):   a / (1 - a b (t - alpha)), NaN past the pole.
    linear_exp(a, b): a exp(b (t - alpha)).
    bernoulli(v0, k, p): [v0^q + q k (t - alpha)]^(1/q), q = 1 - p.
    """
    s = g.nodes - g.alpha
    with np.errstate(all="ignore"):
        if name == "riccati":
            a, b = params["a"], params["b"]
            denom = 1.0 - a * b * s
            vals = np.where(denom > 0, a / denom, np.nan)
        elif name == "linear_exp":
            a, b = params["a"], params["b"]
            vals = a * np.exp(b * s)
        elif name == "bernoulli":
            v0, k, p = params["v0"], params["k"], params["p"]
            q = 1.0 - p
            bracket = np.power(v0, q) + q * k * s
            vals = np.where(bracket > 0, np.power(bracket, 1.0 / q), np.nan)
        else:
            raise ValueError(f"unknown closed form {name!r}")
    return GridFunction(g, vals)


class ReferenceRhs(DiscreteRhs):
    """``DiscreteRhs`` with its earlier call: the exact nodewise test for a
    non-finite w on every call."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        inst = self.inst
        dt = self.g.dt
        with np.errstate(all="ignore"):
            w = np.power(u, inst.p)
            acc = None
            for chain in self.chains:
                s = _apply_parts(chain.parts, w, dt)
                if acc is None:
                    acc = s
                else:
                    acc += s
            if acc is None:
                acc = np.zeros(len(u))
            if self.A is not None:
                acc += self.A @ w
            if self.C is not None:
                C = self.C
                acc += _running_trapezoid_raw(C * w if C.ndim == 1 else C @ w, dt)
            if self.nan_from is not None and not np.isfinite(w).all():
                # Not causal, on purpose: a dense matrix map spreads a
                # non-finite w through 0 * inf to every node from nan_from
                # on, and the suite's verdicts rest on that (ROADMAP items
                # 1 and 4 remove it together).
                acc[self.nan_from:] = np.nan
            return self._tail(inst, w, acc, dt)


def reference_picard_extremal(inst, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """``oracle.picard_extremal`` with its earlier loop, on ``ReferenceRhs``."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    op = ReferenceRhs(inst)
    m = inst.grid.m
    u = op(np.zeros(m + 1))
    delta = np.full(m + 1, np.inf)
    status = PicardStatus.MAX_ITER
    diverged_node = None
    end = m + 1  # nodes below the first escape
    iterations = 0
    with np.errstate(all="ignore"):
        for iterations in range(1, max_iter + 1):
            un = op(u)
            inside = np.abs(un) <= DIVERGENCE_LIMIT  # NaN and inf fail too
            if not inside.all():
                # Volterra causality: nodes below the first escape never see
                # the diverging tail, so keep iterating that prefix to
                # convergence (partial certification over it is the point).
                end = diverged_node = min(end, int(np.argmin(inside)))
            if end == 0:
                status = PicardStatus.DIVERGED
                u = un
                break
            step = un - u
            fell = step[:end] < 0  # exactly where un < u
            if fell.any():
                raise OracleError(
                    f"Picard iterates decreased at node {int(np.argmax(fell))}: "
                    "monotonicity violated"
                )
            delta = np.abs(step, out=step)
            scale = np.abs(u)
            scale += 1.0
            delta /= scale
            u = un
            if delta[:end].max() < tol:
                status = (
                    PicardStatus.DIVERGED
                    if diverged_node is not None
                    else PicardStatus.CONVERGED
                )
                break

        if status is PicardStatus.CONVERGED:
            conv_node = m
        else:
            ok = delta < tol
            conv_node = m if ok.all() else int(np.argmin(ok)) - 1
    u = np.where(np.isfinite(u), u, np.nan)
    return PicardOutcome(
        u=GridFunction(inst.grid, u),
        status=status,
        conv_node=conv_node,
        iterations=iterations,
        diverged_node=diverged_node,
    )


def reference_log2_span(row):
    """``kernels._log2_span`` with its earlier reductions and logs."""
    hi, lo = row.max(), row.min()
    if not (lo >= 0.0 and hi < np.inf):  # NaN fails too
        return None
    if lo == 0.0:
        lo = row.min(where=row > 0.0, initial=np.inf)
        if lo == np.inf:
            return 0.0
    return max(abs(np.log2(hi)), abs(np.log2(lo)))


def reference_check(v, name, rule):
    """``bounds._check`` with its earlier nodewise test on every call."""
    if rule == "nondecreasing":
        v = v[1:] - v[:-1]
    bad = ~(v > 0) if rule == "positive" else v < NONNEG_TOL
    if bad.any():
        j = int(np.argmax(bad))
        if rule == "nondecreasing":
            found = f"it drops by {float(-v[j])} between nodes {j} and {j + 1}"
        else:
            found = f"node {j} has {float(v[j])}"
        raise HypothesisError(f"{name} must be {rule}; {found}")
