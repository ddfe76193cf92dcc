"""Explicit a priori bounds for Volterra inequalities with a u^p nonlinearity.

``compute_bound`` is the one entry point: it looks the instance's theorem
up in one table of private bodies.  Every nonlinear bound is Lemma 3.1's
Bernoulli bracket, with q = 1 - p:

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
    lemma31   exp(int b)  v(alpha)  k exp(-q int b)          q_positivity

Here B = b + int k + int int h (``compute_B``; B1 omits h) and s = sigma(t).
thm32 is thm33 with a constant datum and cor35 is thm34 with b = 1, so
each pair runs one body.  The linear bykov bound has no bracket, and its
horizon ends only where it overflows.  ``bykov_bound``, ``lemma21_bound``
and ``lemma31_bound`` take raw data, not an instance.

Instance hypotheses (nonnegativity, monotonicity, sign of p) are checked
eagerly when a :class:`ProblemInstance` is built, with tolerance -1e-12
and the first offending node named; the closed forms are meaningless off
their hypotheses.

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

import numpy as np

from .grid import Grid, GridFunction, _running_trapezoid_raw, cumulative_trapezoid
from .kernels import NONNEG_TOL, Kernel, KernelSet, apply_Q, apply_R, compute_B

__all__ = [
    "HorizonKind",
    "BoundResult",
    "HypothesisError",
    "ProblemInstance",
    "THEOREMS",
    "detect_horizon",
    "lemma21_bound",
    "lemma31_bound",
    "bykov_bound",
    "compute_bound",
]

THEOREMS = ("bykov", "thm22", "thm23", "thm24", "thm32", "thm33", "thm34", "cor35")

_P_ABOVE_ONE = ("thm22", "thm23", "thm24")
_P_SECTION3 = ("thm32", "thm33", "thm34", "cor35")
_ITERATED = ("thm24", "thm34")
_CONST_DATUM = ("bykov", "thm23", "thm32", "thm34", "cor35")
_FN_DATUM = ("thm22", "thm33")


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


def _check(f: GridFunction, name: str, rule: str) -> None:
    """Raise :class:`HypothesisError` at the first node where ``f`` is not
    ``rule``: "positive", or "nonnegative"/"nondecreasing" within NONNEG_TOL."""
    v = f.values
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

    The datum is either ``a_const`` or ``a_fn`` depending on the family;
    ``sigma`` is the nondecreasing multiplier of thm23; ``kernels`` holds
    the pair {k, h} or the iterated list per the family form.
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
        t = self.theorem
        if t not in THEOREMS:
            raise HypothesisError(f"unknown theorem {t!r}; expected one of {THEOREMS}")
        self._check_p()
        self._check_datum()
        self._check_coefficients()
        self._check_kernels()

    def _check_p(self):
        p = self.p
        t = self.theorem
        if t == "bykov":
            if p != 1.0:
                raise HypothesisError("bykov is the linear case and requires p = 1")
            return
        if p == 1.0:
            raise HypothesisError(
                f"{t} is undefined at p = 1 (the formulas contain 1/(1-p)); "
                "use bykov_bound for the linear case"
            )
        if t in _P_ABOVE_ONE and not p > 1.0:
            raise HypothesisError(f"{t} requires p > 1, got {p}")
        if t in _P_SECTION3 and not p >= 0.0:
            raise HypothesisError(f"{t} requires p >= 0, got {p}")

    def _check_datum(self):
        t = self.theorem
        if t in _CONST_DATUM:
            if self.a_const is None or self.a_fn is not None:
                raise HypothesisError(f"{t} takes a constant datum a")
        elif t in _FN_DATUM:
            if self.a_fn is None or self.a_const is not None:
                raise HypothesisError(f"{t} takes a datum function a(t)")
        else:  # thm24 accepts either
            have = (self.a_const is not None) + (self.a_fn is not None)
            if have != 1:
                raise HypothesisError(f"{t} takes exactly one of a / a(t)")
        if self.a_fn is not None and self.a_fn.grid != self.grid:
            raise HypothesisError("a(t) must live on the instance grid")

        if t == "bykov" or t == "thm23":
            if not self.a_const >= 0:
                raise HypothesisError(f"{t} requires a >= 0, got {self.a_const}")
        elif t in ("thm32", "thm34", "cor35"):
            if not self.a_const > 0:
                raise HypothesisError(f"{t} requires a > 0, got {self.a_const}")
        elif t == "thm22":
            _check(self.a_fn, "a(t)", "nonnegative")
            _check(self.a_fn, "a(t)", "nondecreasing")
        elif t == "thm33":
            _check(self.a_fn, "a(t)", "positive")
        elif t == "thm24":
            a = GridFunction(self.grid, self.a_values)
            _check(a, "a(t)", "nonnegative")

    def _check_coefficients(self):
        t = self.theorem
        if t == "cor35":
            if self.b is not None:
                raise HypothesisError("cor35 has no coefficient b(t)")
        else:
            if self.b is None:
                raise HypothesisError(f"{t} requires the coefficient b(t)")
            if self.b.grid != self.grid:
                raise HypothesisError("b(t) must live on the instance grid")
            if t == "thm24":
                _check(self.b, "b(t)", "positive")
                with np.errstate(all="ignore"):  # an a/b past the float range is left to the bound
                    ratio = GridFunction(self.grid, self.a_values / self.b.values)
                    _check(ratio, "a(t)/b(t)", "nondecreasing")
            else:
                _check(self.b, "b(t)", "nonnegative")

        if t == "thm23":
            if self.sigma is None:
                raise HypothesisError("thm23 requires the multiplier sigma(t)")
            if self.sigma.grid != self.grid:
                raise HypothesisError("sigma(t) must live on the instance grid")
            _check(self.sigma, "sigma(t)", "nonnegative")
            _check(self.sigma, "sigma(t)", "nondecreasing")
        elif self.sigma is not None:
            raise HypothesisError(f"{t} takes no sigma(t)")

    def _check_kernels(self):
        t = self.theorem
        ks = self.kernels
        if t in _ITERATED:
            if ks is None or ks.form != "iterated":
                raise HypothesisError(f"{t} requires an iterated kernel set k1..kn")
            return
        if ks is None:
            object.__setattr__(self, "kernels", KernelSet.pair(None, None))
            return
        if ks.form != "pair":
            raise HypothesisError(f"{t} takes the kernel pair {{k, h}}")
        if t == "thm23" and ks.h is not None:
            raise HypothesisError("thm23 has no triple-integral kernel h")


def lemma21_bound(
    v0: float, b: GridFunction, f: GridFunction, g: Grid
) -> GridFunction:
    """Linear comparison bound: v0*exp(Cb) + int f(s) exp(Cb(t)-Cb(s)) ds."""
    Cb = cumulative_trapezoid(b).values
    with np.errstate(all="ignore"):
        E = np.exp(Cb)
        inner = cumulative_trapezoid(GridFunction(g, f.values * np.exp(-Cb))).values
        out = v0 * E + E * inner
    return GridFunction(g, out)


def lemma31_bound(
    v_alpha: float, b: GridFunction, k: GridFunction, p: float, g: Grid
) -> BoundResult:
    """Bernoulli-type bound for v' <= b v + k v^p with v(alpha) <= v_alpha.

    The bound is ``exp(Cb) [v_alpha^q + q int k exp(-q Cb)]^(1/q)`` with
    ``Cb = int b``; ``k`` may change sign, so the bracket can reach zero
    for either sign of q, and its first crossing is the horizon.
    """
    if not v_alpha > 0:
        raise HypothesisError(f"lemma31 requires v(alpha) > 0, got {v_alpha}")
    if p == 1.0:
        raise HypothesisError("p = 1 is the linear case; use lemma21_bound")
    if not p >= 0:
        raise HypothesisError(f"lemma31 requires p >= 0, got {p}")
    q = 1.0 - p
    Cb = cumulative_trapezoid(b).values
    with np.errstate(all="ignore"):
        factor = np.exp(Cb)
        integrand = k.values * np.exp(-q * Cb)
    return _bracket_bound(g, factor, v_alpha, q, integrand, HorizonKind.Q_POSITIVITY)


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


def bykov_bound(
    a: float, b: GridFunction, k: Kernel | None, h: Kernel | None, g: Grid
) -> GridFunction:
    """Exponential bound a*exp(int B) for the linear (p = 1) inequality."""
    if not a >= 0:
        raise HypothesisError(f"bykov requires a >= 0, got {a}")
    B = compute_B(b, k, h, g)
    with np.errstate(all="ignore"):
        out = a * np.exp(cumulative_trapezoid(B).values)
    return GridFunction(g, out)


def _bykov(inst: ProblemInstance) -> BoundResult:
    """bykov_bound with its horizon: it ends only where the bound overflows."""
    g = inst.grid
    vals = bykov_bound(inst.a_const, inst.b, inst.kernels.k, inst.kernels.h, g).values.copy()
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


_BOUND_DISPATCH = {
    "bykov": _bykov,
    "thm22": _thm22,
    "thm23": _thm23,
    "thm24": _thm24,
    "thm32": _pair_q_form,
    "thm33": _pair_q_form,
    "thm34": _multiplier_q_form,
    "cor35": _multiplier_q_form,
}


def compute_bound(inst: ProblemInstance) -> BoundResult:
    """Evaluate the instance's bound family, the one entry point for all eight."""
    return _BOUND_DISPATCH[inst.theorem](inst)
