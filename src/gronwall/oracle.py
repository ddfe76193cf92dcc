"""Brute-force ground truth for the bound certificates.

The extremal solution of the equality version of each inequality is the
least fixed point of its Volterra right-hand side; because the operator
is monotone for nonnegative data, Picard iteration starting from the
datum climbs to it.  ``verify_dominance`` then checks the headline
certificate: extremal <= bound at every node where both are meaningful.

For p > 1 the true solution may blow up inside the interval; nodes keep
diverging sweep after sweep and the run is reported with the first
divergent node plus the prefix of nodes whose successive differences had
already converged (partial certification over that prefix is the point).

``check_dominance`` takes an instance to a verdict for ``verify`` and
``suite`` alike: bound, Picard, ``verify_dominance``, one refusal rule.
A comparison that ends at node 0 of a longer grid certifies nothing and
is refused, unless Picard diverged and the horizon lies past node 0;
that one is returned with its reason, and ``verify`` refuses it too.

All right-hand sides are discretized with the same composite trapezoid
rule as the bounds, through the same kernel terms.  The kernel integrals
are linear in w = u^p, so for every family (the pair forms, cor35 and the
iterated thm24/thm34 alike) each kernel is prepared once per instance: a
separable kernel as a chain of running sums, costing O(m * depth * rank)
per sweep with no O(m^2) array, and any other as a dense map, summed into
at most one matrix and one running-sum matrix (two mat-vecs per sweep).
A chain is the very object the bound already built on the same grid
(the ``Kernel`` keeps its chains), and its factor arrays are the ones its
kernel shape sampled (see ``kernels``), so they are shared, not copied.

At the suite's m = 256 a sweep costs a few dozen numpy calls on short
arrays, so call overhead, not arithmetic, sets its price.  A sweep is
therefore one pass under one ``errstate``: each chain's rank-one parts
applied in turn, unit factors skipped (``1.0 * x == x`` bit for bit),
the theorem's tail picked once per operator, and every temporary
updated in place.  A test on a whole array is one reduction, and the
nodewise array is built only when the reduction fails: the operator
tests w for a non-finite value by its sum, and ``picard_extremal``'s
escape, decrease and convergence tests read a max or a min, so its
bookkeeping is eight numpy calls per sweep.  Each shortcut gives the
bits of the nodewise form (``tests/conftest.py`` keeps that form as the
reference).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import _FAMILIES, BoundResult, ProblemInstance, compute_bound
from .expr import BinOp, Num, free_variables, parse
from .grid import Grid, GridFunction, _running_trapezoid_raw
from .kernels import Kernel, KernelSet, _apply_parts, _chain, _sum_term_maps

__all__ = [
    "OracleError",
    "PicardStatus",
    "PicardOutcome",
    "DominanceReport",
    "DOMINANCE_RTOL",
    "DIVERGENCE_LIMIT",
    "picard_extremal",
    "verify_dominance",
    "check_dominance",
    "random_instance",
    "SUITE_FAMILIES",
]

# The suite's verdict gate, relative to 1 + bound at each compared node.
DOMINANCE_RTOL = 1e-9
# Verdict gate for `verify`: the Picard extremal and the bound are both
# trapezoid discretizations, so they may disagree at O(dt^2) even when
# the continuum certificate is tight (bound == extremal).  1e-3 relative
# absorbs that noise at desk-scale grids; the raw strict-dominance
# violation is still printed in the summary.
VERIFY_RTOL = 1e-3
DIVERGENCE_LIMIT = 1e12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000

SUITE_FAMILIES = ("thm22", "thm32", "thm33", "cor35")


class OracleError(RuntimeError):
    """The Picard oracle leaves nothing to compare, or its iterates decreased."""


class PicardStatus(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITER = "max_iter"


@dataclass(frozen=True, eq=False)
class PicardOutcome:
    """Result of a Picard run.

    ``conv_node`` is the last node of the prefix on which the successive
    -difference criterion held in the final sweep (m when fully
    converged); ``diverged_node`` is the first node past the divergence
    limit, if any.
    """

    u: GridFunction
    status: PicardStatus
    conv_node: int
    iterations: int
    diverged_node: int | None = None


class DiscreteRhs:
    """The instance's full right-hand side on the grid, precomputed.

    Calling it maps node values ``u`` to ``RHS(u)``.  The kernel integrals
    are linear in w = u^p.  Each separable kernel is one of ``chains``
    (see ``kernels``), the same read-only chain that the bound used on
    this grid; the others sum to ``A @ w`` plus the running trapezoid sum
    of ``C . w``, with ``A`` and ``C`` assembled here once (either may be
    None).  A call applies each chain's rank-one parts, skipping unit
    factors and coefficients of exactly 1.0, and sums them per chain in the
    chain's order, so a rank > 1 chain adds up as it does in the bound.
    It holds no per-operator array: the datum comes from the instance's
    cached ``a_values``, and ``nan_from`` is read at call time.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.g = inst.grid
        present = [(k, name) for name, k in inst.kernels.named() if not k.is_zero]
        # The first node to which the dense maps spread a non-finite w
        # (see __call__), as kernels._term_map shapes them: a kernel that
        # reads t is a matrix (node 0); a t-free one of arity >= 2, a
        # matrix under a running sum (node 1); a t-free arity-1 kernel, a
        # diagonal under a running sum, which stays causal (None).
        if any("t" in free_variables(k.body) for k, _ in present):
            self.nan_from = 0
        elif any(k.arity > 1 for k, _ in present):
            self.nan_from = 1
        else:
            self.nan_from = None
        self.chains = []
        dense = []
        for k, label in present:
            chain = _chain(k, self.g, 0)
            if chain is None:
                dense.append((k, label))
            else:
                self.chains.append(chain)
        self.A = self.C = None
        if dense:
            self.A, self.C = _sum_term_maps(dense, self.g)
        self._tail = getattr(self, "_tail_" + _FAMILIES[inst.theorem].rhs)

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
            # A finite sum means a finite w; an overflowing one is settled
            # by the exact test.
            if (self.nan_from is not None and not math.isfinite(np.add.reduce(w))
                    and not np.isfinite(w).all()):
                # Not causal, on purpose: a dense matrix map spreads a
                # non-finite w through 0 * inf to every node from nan_from
                # on, and the suite's verdicts rest on that (ROADMAP items
                # 1 and 4 remove it together).
                acc[self.nan_from:] = np.nan
            return self._tail(inst, w, acc, dt)

    # The datum and the outer factor, applied in place to the kernel sum
    # ``acc`` (a new array); the theorem's row in ``bounds._FAMILIES``
    # names the one it takes.
    @staticmethod
    def _tail_datum_plus_b_times(inst, w, acc, dt):  # a(t) + b(t) acc
        acc *= inst.b.values
        acc += inst.a_values
        return acc

    @staticmethod
    def _tail_b_times_a_plus(inst, w, acc, dt):  # b(t) (a + acc), an absent b is 1
        acc += inst.a_const
        if inst.b is not None:
            acc *= inst.b.values
        return acc

    @staticmethod
    def _tail_cumulative(inst, w, acc, dt):
        # datum + int_a^t (b w + int k w + int int h w)
        v = inst.b.values * w
        v += acc
        acc = _running_trapezoid_raw(v, dt)
        acc += inst.a_values
        return acc

    @staticmethod
    def _tail_sigma_cumulative(inst, w, acc, dt):  # sigma (a + int_a^t ...), a constant
        acc = DiscreteRhs._tail_cumulative(inst, w, acc, dt)
        acc *= inst.sigma.values
        return acc


def picard_extremal(
    inst: ProblemInstance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PicardOutcome:
    """Monotone Picard construction of the least solution of u = RHS(u).

    Starts at RHS(0) (the datum) and iterates until the max-node relative
    change drops below ``tol``, any node passes the divergence limit, or
    ``max_iter`` sweeps elapse.  Iterates are checked to be nodewise
    nondecreasing every sweep; the Volterra operator guarantees it.

    Each test is one reduction; the node it names (the first escape, the
    first fall) is looked up only when it fails.  ``delta``, the relative
    change, is divided in place and keeps its sign: below the first escape
    it is nonnegative, and ``conv_node`` takes its absolute value once.
    When node 0 escapes, ``delta`` and so ``conv_node`` are those of the
    sweep before.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    op = DiscreteRhs(inst)
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
            if not np.maximum.reduce(np.abs(un)) <= DIVERGENCE_LIMIT:  # a NaN max fails
                # Volterra causality: nodes below the first escape never see
                # the diverging tail, so keep iterating that prefix to
                # convergence (partial certification over it is the point).
                inside = np.abs(un) <= DIVERGENCE_LIMIT  # NaN and inf fail too
                end = diverged_node = min(end, int(np.argmin(inside)))
            if end == 0:
                status = PicardStatus.DIVERGED
                u = un
                break
            # The signed relative change: |x| / s == |x / s| bit for bit, so
            # its absolute value waits for conv_node; below `end` it is
            # nonnegative once the decrease test has passed.
            delta = un - u
            if np.fmin.reduce(delta[:end]) < 0:  # skips NaN, as `delta < 0` does
                node = int(np.argmax(delta[:end] < 0))
                raise OracleError(
                    f"Picard iterates decreased at node {node}: monotonicity violated"
                )
            scale = np.abs(u)
            scale += 1.0
            delta /= scale
            u = un
            if np.maximum.reduce(delta[:end]) < tol:
                status = (
                    PicardStatus.DIVERGED
                    if diverged_node is not None
                    else PicardStatus.CONVERGED
                )
                break

        if status is PicardStatus.CONVERGED:
            conv_node = m
        else:
            ok = np.abs(delta) < tol
            conv_node = m if ok.all() else int(np.argmin(ok)) - 1
        if not math.isfinite(np.add.reduce(u)):  # else nothing to replace
            u = np.where(np.isfinite(u), u, np.nan)
    return PicardOutcome(
        u=GridFunction(inst.grid, u),
        status=status,
        conv_node=conv_node,
        iterations=iterations,
        diverged_node=diverged_node,
    )


@dataclass(frozen=True)
class DominanceReport:
    passed: bool
    compare_node: int
    max_violation: float
    min_margin: float
    cut: str  # which truncation applied: horizon | oracle | none


def verify_dominance(
    u: GridFunction, br: BoundResult, conv_node: int, rtol: float = DOMINANCE_RTOL
) -> DominanceReport:
    """Check extremal <= bound over the nodes where both are meaningful.

    Compares up to min(horizon_node, conv_node) with the relative slack
    ``rtol * (1 + bound)`` per node.
    """
    n = min(br.horizon_node, conv_node)
    if n < 0:
        raise OracleError("nothing to compare: empty converged prefix")
    bvals = br.bound.values[: n + 1]
    viol = u.values[: n + 1] - bvals
    if br.horizon_node < conv_node:
        cut = "horizon"
    elif conv_node < br.horizon_node:
        cut = "oracle"
    else:
        cut = "none"
    max_violation = float(viol.max())
    return DominanceReport(
        passed=bool((viol <= rtol * (1.0 + bvals)).all()),
        compare_node=n,
        max_violation=max_violation,
        min_margin=0.0 - max_violation,  # not -max_violation: a zero margin is 0, not -0
        cut=cut,
    )


def _nothing_certified(br: BoundResult, outcome: PicardOutcome) -> str:
    """Why a comparison on node 0 alone, of a grid with more, is refused."""
    if br.horizon_node == 0:
        why = f"the bound holds on node 0 alone (horizon kind {br.horizon_kind.value})"
    else:
        why = (
            f"Picard converged on node 0 alone (picard={outcome.status.value} "
            f"iterations={outcome.iterations}) while the horizon lies at node "
            f"{br.horizon_node}"
        )
    return f"{why}: the comparison would certify nothing"


def check_dominance(
    inst: ProblemInstance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    rtol: float = DOMINANCE_RTOL,
) -> tuple[BoundResult, PicardOutcome, DominanceReport, str | None]:
    """Bound, Picard extremal and dominance report, at ``rtol``, of ``inst``.

    The fourth value says why a comparison that ends at node 0 of a longer
    grid certifies nothing (None otherwise); such a comparison raises
    :class:`OracleError` unless Picard diverged below a later horizon.
    """
    br = compute_bound(inst)
    outcome = picard_extremal(inst, tol=tol, max_iter=max_iter)
    report = verify_dominance(outcome.u, br, outcome.conv_node, rtol)
    reason = None
    if report.compare_node == 0 < inst.grid.m:
        reason = _nothing_certified(br, outcome)
        # Kept: a diverged run whose node 0 alone converged, the rows that
        # DiscreteRhs's NaN line makes; ROADMAP item 1 removes both.
        if outcome.status is not PicardStatus.DIVERGED or br.horizon_node == 0:
            raise OracleError(reason)
    return br, outcome, report, reason


_SUITE_P = {
    "thm22": (2.0, 3.0),
    "thm32": (0.0, 0.5, 2.0, 3.0),
    "thm33": (0.0, 0.5, 2.0, 3.0),
    "cor35": (0.0, 0.5, 2.0, 3.0),
}
# The double kernels' shapes, times c2 in random_instance.
_DECAYING = parse("exp(-(t-t1))", {"t", "t1"})
_GROWING = parse("exp(t-t1)", {"t", "t1"})


@lru_cache(maxsize=1)
def _unit_grid(m: int) -> Grid:
    """The grid of [0, 1] at ``m``; the last one is kept, so that a run of
    instances at one m shares it."""
    return Grid(0.0, 1.0, m)


def random_instance(theorem: str, seed: int, m: int = 256) -> ProblemInstance:
    """One member of the random verification family on [0, 1].

    Coefficients c0..c5 are uniform on [0, 1] from ``default_rng(seed)``:
    b = c0 + c1 t, double kernel c2 exp(-(t-s)), triple kernel c3, datum
    c4 (plus c5 t for the nondecreasing-datum families), with p drawn
    from the family's admissible subset of {0, 0.5, 2, 3}.  cor35 needs a
    nonnegative kernel t-derivative, so its double kernel is c2 exp(t-s),
    whose derived t-derivative is the kernel itself.

    The kernels are built as trees around templates parsed once, at
    import: the same trees that parsing ``f"{c2!r}*exp(-(t-s))"`` and
    ``repr(c3)`` gives, without the parse.  As kernels differ only in
    their leading coefficient, every instance shares the separation and
    the factor samples that the templates (and ``Num(1.0)`` for the
    constant h) keep on themselves, cor35's k pinned to the diagonal
    included, since pinning folds its ``t-t`` to 0.  Consecutive
    instances at one m share one ``Grid``, so its nodes are made once,
    and p is drawn with ``rng.integers``, the draw ``rng.choice(ps)``
    makes (``bench/families.suite_draw`` uses the latter).
    """
    if theorem not in _SUITE_P:
        raise ValueError(f"no random family for {theorem!r}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 1.0, 6).tolist()
    ps = _SUITE_P[theorem]
    p = ps[rng.integers(len(ps))]  # the draw rng.choice(ps) makes
    g = _unit_grid(m)
    T = g.nodes
    b = GridFunction(g, c[0] + c[1] * T)
    h = Kernel(2, Num(c[3]))
    if theorem == "cor35":
        k = Kernel(1, BinOp("*", Num(c[2]), _GROWING))
        kernels = KernelSet.pair(k, h)
        return ProblemInstance("cor35", p, g, a_const=c[4], kernels=kernels)
    k = Kernel(1, BinOp("*", Num(c[2]), _DECAYING))
    kernels = KernelSet.pair(k, h)
    if "a(t)" in _FAMILIES[theorem].datum:
        a_fn = GridFunction(g, c[4] + c[5] * T)
        return ProblemInstance(theorem, p, g, a_fn=a_fn, b=b, kernels=kernels)
    return ProblemInstance(theorem, p, g, a_const=c[4], b=b, kernels=kernels)
