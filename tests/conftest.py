"""Shared test helpers, and test references that the package does not run.

``constant``, ``running_sup``, ``at``, ``first_nonfinite_node``,
``kernel_dt``, ``separated``, ``rhs_operator``, ``check_admissible`` and
``closed_form`` are small oracles that only the tests read: nodewise
helpers, interpolation between nodes, a pointwise kernel
derivative, a kernel term's separation, the instance's right-hand side as
a grid function with its admissibility defect, and analytic solutions of
u' = b u^p.
"""

from dataclasses import dataclass

import numpy as np

from gronwall import expr
from gronwall.bounds import HypothesisError, ProblemInstance
from gronwall.expr import parse
from gronwall.grid import Grid, GridFunction, sample
from gronwall.kernels import Kernel, KernelError, KernelSet
from gronwall.oracle import DiscreteRhs

ADMISSIBLE_RTOL = 1e-9


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
