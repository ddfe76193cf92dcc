"""Explicit a priori bounds for Volterra inequalities with a u^p nonlinearity.

The theorem table is ``_FAMILIES``, one row per theorem: its bound body,
its hypotheses and the form of its right-hand side in the Picard oracle.
``compute_bound`` is the one entry point: it runs the body of the
instance's row.  Every nonlinear bound is Lemma 3.1's Bernoulli bracket,
with q = 1 - p:

    bound(t) = F(t) [D(t)^q + q int_alpha^t I]^(1/q)

It holds up to the horizon, the last node before the bracket stops being
positive (or finite) or the bound overflows (horizon kind ``overflow``);
past it the bound values are NaN.  Section 2 writes its bounds as
F (1 - (p-1) int I)^(1/(1-p)), which is the case D = 1.

    theorem   F(t)        D(t)      I(t)                     horizon kind
    bykov     a exp(int B), no bracket (p = 1)               overflow
    thm22     a(t)        1         B a^(p-1)                p_blow_up
    thm23     a s e^s     1         a^(p-1) B1 s^(p-1) e^s   p_blow_up
    thm24     a(t)        1         (a/b)^(p-1) (R+Q)[b^p]   p_blow_up
    thm32/33  1           sup a     B                        q_positivity
    thm34     b(t)        a         (R+Q)[b^p]               q_positivity
    cor35     1           a         (R+Q)[1] on (k, h)       q_positivity

Here B = b + int k + int int h (``compute_B``; B1 omits h) and s = sigma(t).
thm32 is thm33 with a constant datum and cor35 is thm34 with b = 1, so
each pair runs one body.  The linear bykov bound has no bracket, and its
horizon ends only where it overflows.

A :class:`ProblemInstance` checks its row's hypotheses when it is built,
in one walk over the row, since the closed forms are meaningless off them:

    theorem  p     datum             b(t)            sigma(t)     kernels
    bykov    = 1   a >= 0            >= 0            -            pair {k, h}
    thm22    > 1   a(t) >= 0, incr.  >= 0            -            pair
    thm23    > 1   a >= 0            >= 0            >= 0, incr.  k, no h
    thm24    > 1   a or a(t) >= 0    > 0, a/b incr.  -            k1..kn
    thm32    >= 0  a > 0             >= 0            -            pair
    thm33    >= 0  a(t) > 0          >= 0            -            pair
    thm34    >= 0  a > 0             >= 0            -            k1..kn
    cor35    >= 0  a > 0             -               -            pair

Here incr. is nondecreasing and - means not taken.  A rule on a function
holds at every node within tolerance -1e-12 (> 0 strictly), and an error
names the first node where it fails.  Adding a theorem is adding its row
and its body.

thm24, thm34 and cor35 integrate each kernel's t-derivative through Q, so
they need k >= 0 and dk/dt >= 0 on the simplex.  Both are checked on the
samples the bound takes, with the same tolerance: R samples k on the face
t1 = t and Q samples dk/dt on the whole simplex.  A kernel that decreases
in t raises :class:`kernels.NegativeKernelError` naming ``d/dt of kernel
<name>``, with the name its config gives it (k, h or k<i>), and the node,
where the closed form would be no bound at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .grid import Grid, GridFunction, _running_trapezoid_raw
from .kernels import NONNEG_TOL, KernelSet, apply_Q, apply_R, compute_B

__all__ = [
    "HorizonKind",
    "BoundResult",
    "HypothesisError",
    "ProblemInstance",
    "THEOREMS",
    "detect_horizon",
    "compute_bound",
]

class HypothesisError(ValueError):
    """A theorem hypothesis fails on the given data."""


class HorizonKind(enum.Enum):
    FULL = "full"
    P_BLOW_UP = "p_blow_up"
    Q_POSITIVITY = "q_positivity"
    OVERFLOW = "overflow"


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A bound curve plus the horizon up to which it is valid.

    ``horizon_node`` is the last node index where the defining condition
    holds strictly; ``horizon_time`` interpolates the crossing linearly
    (it is beta with kind FULL, and that node's time with kind OVERFLOW).
    """

    bound: GridFunction
    horizon_node: int
    horizon_time: float
    horizon_kind: HorizonKind

    @property
    def full(self) -> bool:
        return self.horizon_kind is HorizonKind.FULL


def detect_horizon(g: Grid, bracket: np.ndarray | None, bound: np.ndarray | None):
    """Locate where ``bracket`` stops being finite and strictly positive, or
    the ``bound`` values stop being finite.

    Both are raw values on the grid ``g``; either may be None, to check the
    other alone.  Returns ``(horizon_node, horizon_time, HorizonKind)`` for
    the last node before the first invalid one (a node sitting exactly on
    zero is excluded), as ``BoundResult`` holds them, with kind Q_POSITIVITY
    where the bracket fails.  Raises :class:`HypothesisError` when node 0 is
    already invalid.
    """
    if _all_valid(bracket, bound):
        return g.m, float(g.beta), HorizonKind.FULL
    valid = np.ones(g.m + 1, bool) if bracket is None else np.isfinite(bracket) & (bracket > 0.0)
    finite = valid if bound is None else valid & np.isfinite(bound)
    j = int(finite.argmin())  # the fast test is exact, so node j is invalid
    if j == 0:
        raise HypothesisError(
            f"bracket invalid at node 0 (value {float(bracket[0])!r}): inconsistent instance"
            if not valid[0] else
            f"bound overflows at node 0 (value {float(bound[0])!r}): the data are past "
            "the float range"
        )
    T = g.nodes
    if valid[j]:
        return j - 1, float(T[j - 1]), HorizonKind.OVERFLOW
    v0, v1 = float(bracket[j - 1]), float(bracket[j])
    if math.isfinite(v1) and v1 != v0:
        time = T[j - 1] + (T[j] - T[j - 1]) * (v0 / (v0 - v1))
    else:
        time = T[j]
    return j - 1, float(time), HorizonKind.Q_POSITIVITY


def _all_valid(bracket: np.ndarray | None, bound: np.ndarray | None) -> bool:
    """``detect_horizon``'s exact fast test, one min and one max of each
    array (NaN fails every comparison)."""
    lo, hi = np.minimum.reduce, np.maximum.reduce
    return (bracket is None or lo(bracket) > 0.0 and hi(bracket) < np.inf) and (
        bound is None or hi(bound) < np.inf and lo(bound) > -np.inf
    )


def _check(v: np.ndarray, name: str, rule: str) -> None:
    """Raise :class:`HypothesisError` at the first node where the values
    ``v`` of ``name`` are not ``rule``: "positive", or
    "nonnegative"/"nondecreasing" within NONNEG_TOL."""
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


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One inequality instance: theorem family, exponent, data and kernels.

    The theorem's row of ``_FAMILIES`` says which of ``a_const`` and
    ``a_fn``, ``b`` and ``sigma`` it takes, and its kernel form.
    """

    theorem: str
    p: float
    grid: Grid
    a_const: float | None = None
    a_fn: GridFunction | None = None
    b: GridFunction | None = None
    sigma: GridFunction | None = None
    kernels: KernelSet | None = None

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @cached_property
    def a_values(self) -> np.ndarray:
        """The datum at every node, read-only; built once per instance."""
        if self.a_fn is not None:
            return self.a_fn.values
        a = np.full(self.grid.m + 1, float(self.a_const))
        a.flags.writeable = False
        return a

    def __post_init__(self):
        t, p = self.theorem, self.p
        row = _FAMILIES.get(t)
        if row is None:
            raise HypothesisError(f"unknown theorem {t!r}; expected one of {THEOREMS}")

        if row.p == "= 1":
            if p != 1.0:
                raise HypothesisError(f"{t} is the linear case and requires p = 1")
        elif p == 1.0:
            raise HypothesisError(
                f"{t} is undefined at p = 1 (the formulas contain 1/(1-p)); "
                "use theorem bykov for the linear case"
            )
        elif not _HOLDS[row.p](p):
            raise HypothesisError(f"{t} requires p {row.p}, got {p}")

        given = [kind for kind, v in (("a", self.a_const), ("a(t)", self.a_fn)) if v is not None]
        if len(given) != 1 or given[0] not in row.datum:
            raise HypothesisError(f"{t} takes {_TAKES[row.datum]}")
        if self.a_fn is not None and self.a_fn.grid != self.grid:
            raise HypothesisError("a(t) must live on the instance grid")
        for rule in row.a:
            if rule not in _HOLDS:
                _check(self.a_values, "a(t)", rule)
            elif not _HOLDS[rule](self.a_const):
                raise HypothesisError(f"{t} requires a {rule}, got {self.a_const}")

        for name, f, rules, needs, takes_no in (
            ("b(t)", self.b, row.b, "requires the coefficient", "has no coefficient"),
            ("sigma(t)", self.sigma, row.sigma, "requires the multiplier", "takes no"),
        ):
            if rules is None:
                if f is not None:
                    raise HypothesisError(f"{t} {takes_no} {name}")
                continue
            if f is None:
                raise HypothesisError(f"{t} {needs} {name}")
            if f.grid != self.grid:
                raise HypothesisError(f"{name} must live on the instance grid")
            for rule in rules:
                if rule != _RATIO_NONDECREASING:
                    _check(f.values, name, rule)
                else:  # an a/b past the float range is left to the bound
                    with np.errstate(all="ignore"):
                        _check(self.a_values / f.values, "a(t)/b(t)", "nondecreasing")

        ks = self.kernels
        if row.kernels == "iterated":
            if ks is None or ks.form != "iterated":
                raise HypothesisError(f"{t} requires an iterated kernel set k1..kn")
        elif ks is None:
            object.__setattr__(self, "kernels", KernelSet.pair(None, None))
        elif ks.form != "pair":
            raise HypothesisError(f"{t} takes the kernel pair {{k, h}}")
        elif row.kernels == "k" and ks.h is not None:
            raise HypothesisError(f"{t} has no triple-integral kernel h")


def _bracket_bound(
    g: Grid, factor, datum, q: float, integrand: np.ndarray, kind: HorizonKind
) -> BoundResult:
    """``factor * (datum^q + q int_alpha^t integrand)^(1/q)`` and its horizon;
    ``factor`` None stands for 1.

    The horizon is the last node before the bracket stops being positive,
    a crossing that ``kind`` labels, or before the bound overflows.
    """
    with np.errstate(all="ignore"):
        bracket = _running_trapezoid_raw(integrand, g.dt)
        bracket *= q
        bracket += np.power(datum, q)
        vals = np.power(bracket, 1.0 / q)
        if factor is not None:
            vals *= factor
    node, time, crossed = detect_horizon(g, bracket, vals)
    if crossed is not HorizonKind.FULL:
        vals[node + 1 :] = np.nan
    crossed = kind if crossed is HorizonKind.Q_POSITIVITY else crossed
    return BoundResult(GridFunction(g, vals), node, time, crossed)


def _bykov(inst: ProblemInstance) -> BoundResult:
    """The linear bound a exp(int B); its horizon ends only where it overflows."""
    g = inst.grid
    B = compute_B(inst.b, inst.kernels.k, inst.kernels.h, g)
    with np.errstate(all="ignore"):
        vals = inst.a_const * np.exp(_running_trapezoid_raw(B.values, g.dt))
    node, time, kind = detect_horizon(g, None, vals)
    vals[node + 1 :] = np.nan
    return BoundResult(GridFunction(g, vals), node, time, kind)


def _thm22(inst: ProblemInstance) -> BoundResult:
    """Power-nonlinearity bound with a nondecreasing datum function."""
    g, p = inst.grid, inst.p
    a = inst.a_fn.values
    B = compute_B(inst.b, inst.kernels.k, inst.kernels.h, g)
    with np.errstate(all="ignore"):
        integrand = B.values * np.power(a, p - 1.0)
    return _bracket_bound(g, a, 1.0, inst.q, integrand, HorizonKind.P_BLOW_UP)


def _thm23(inst: ProblemInstance) -> BoundResult:
    """Bound for the multiplicative form u <= sigma(t) {a1 + int b u^p + int int k u^p}."""
    g, p, a1 = inst.grid, inst.p, inst.a_const
    sig = inst.sigma.values
    B1 = compute_B(inst.b, inst.kernels.k, None, g)
    with np.errstate(all="ignore"):
        integrand = (
            B1.values * np.power(sig, p - 1.0) * np.exp(sig) * np.power(a1, p - 1.0)
        )
        factor = a1 * sig * np.exp(sig)
    return _bracket_bound(g, factor, 1.0, inst.q, integrand, HorizonKind.P_BLOW_UP)


def _r_plus_q(inst: ProblemInstance) -> np.ndarray:
    """(R + Q)[b^p] of the instance's kernels as raw values, the integrand of
    thm24, thm34 and cor35; cor35 has no b, and its b = 1 gives the all-ones
    weight."""
    g, ks = inst.grid, inst.kernels
    with np.errstate(all="ignore"):
        w = None if inst.b is None else GridFunction(g, np.power(inst.b.values, inst.p))
        return apply_R(ks, w, g).values + apply_Q(ks, w, g).values


def _thm24(inst: ProblemInstance) -> BoundResult:
    """Iterated-kernel bound built from the functionals R[b^p] and Q[b^p]."""
    a = inst.a_values
    RQ = _r_plus_q(inst)
    with np.errstate(all="ignore"):
        integrand = np.power(a / inst.b.values, inst.p - 1.0) * RQ
    return _bracket_bound(inst.grid, a, 1.0, inst.q, integrand, HorizonKind.P_BLOW_UP)


def _pair_q_form(inst: ProblemInstance) -> BoundResult:
    """thm32/thm33: [A^q + q int B]^(1/q), A the running sup of the datum."""
    g = inst.grid
    A = inst.a_values if inst.a_fn is None else np.maximum.accumulate(inst.a_values)
    B = compute_B(inst.b, inst.kernels.k, inst.kernels.h, g)
    return _bracket_bound(g, None, A, inst.q, B.values, HorizonKind.Q_POSITIVITY)


def _multiplier_q_form(inst: ProblemInstance) -> BoundResult:
    """thm34/cor35: b(t) [a^q + q int (R[b^p]+Q[b^p])]^(1/q); cor35 has no
    b, which is 1 there, and its R + Q walks its pair (k, h) as (k1, k2)."""
    b = None if inst.b is None else inst.b.values
    RQ = _r_plus_q(inst)
    return _bracket_bound(inst.grid, b, inst.a_const, inst.q, RQ, HorizonKind.Q_POSITIVITY)


class _Family(NamedTuple):
    """One theorem: its bound body and its hypotheses, in checking order."""

    body: Callable[[ProblemInstance], BoundResult]
    p: str  # a key of _HOLDS, or "= 1" for bykov's linear case
    datum: tuple  # the datum kinds accepted, a constant "a" or a function "a(t)"
    a: tuple  # rules on the datum: a key of _HOLDS tests a constant a, any other is _check's
    b: tuple | None  # _check's rules on b(t), None if the theorem takes no b(t)
    sigma: tuple | None  # the same on sigma(t)
    kernels: str  # the kernel form: "pair", "k" (the pair without h) or "iterated"
    rhs: str  # the Picard oracle's right-hand side, DiscreteRhs._tail_<rhs>


_HOLDS = {"> 1": lambda x: x > 1.0, ">= 0": lambda x: x >= 0.0, "> 0": lambda x: x > 0.0}
_A, _FN, _EITHER = ("a",), ("a(t)",), ("a", "a(t)")
_TAKES = {
    _A: "a constant datum a",
    _FN: "a datum function a(t)",
    _EITHER: "exactly one of a / a(t)",
}
_NONNEG = ("nonnegative",)
_NONNEG_NONDECREASING = ("nonnegative", "nondecreasing")
# thm24's rule on the ratio of its datum to b, checked after b's own.
_RATIO_NONDECREASING = "a/b nondecreasing"

_FAMILIES = {
    # theorem: body, p, datum, rules on a, b(t) and sigma(t), kernel form, rhs
    "bykov": _Family(_bykov, "= 1", _A, (">= 0",), _NONNEG, None,
                     "pair", "cumulative"),
    "thm22": _Family(_thm22, "> 1", _FN, _NONNEG_NONDECREASING, _NONNEG, None,
                     "pair", "cumulative"),
    "thm23": _Family(_thm23, "> 1", _A, (">= 0",), _NONNEG, _NONNEG_NONDECREASING,
                     "k", "sigma_cumulative"),
    "thm24": _Family(_thm24, "> 1", _EITHER, _NONNEG, ("positive", _RATIO_NONDECREASING), None,
                     "iterated", "datum_plus_b_times"),
    "thm32": _Family(_pair_q_form, ">= 0", _A, ("> 0",), _NONNEG, None,
                     "pair", "cumulative"),
    "thm33": _Family(_pair_q_form, ">= 0", _FN, ("positive",), _NONNEG, None,
                     "pair", "cumulative"),
    "thm34": _Family(_multiplier_q_form, ">= 0", _A, ("> 0",), _NONNEG, None,
                     "iterated", "b_times_a_plus"),
    "cor35": _Family(_multiplier_q_form, ">= 0", _A, ("> 0",), None, None,
                     "pair", "b_times_a_plus"),
}
THEOREMS = tuple(_FAMILIES)


def compute_bound(inst: ProblemInstance) -> BoundResult:
    """Evaluate the instance's bound family, the one entry point for all eight."""
    return _FAMILIES[inst.theorem].body(inst)
