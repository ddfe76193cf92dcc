"""Continuum reference bounds, derived with sympy apart from ``gronwall``.

:func:`derive` reads a :class:`families.Family`'s templates symbolically,
with the coefficients ``c0 .. c5`` as symbols, and integrates the theorem's
bound exactly.  Polynomial and exponential kernels keep every integral in
closed form, so the reference is the continuum bound, not another
quadrature; kernel t-derivatives are differentiated exactly, whatever path
``gronwall`` takes for them.

The formulas are the paper's, written out here from the theorem statements:

* pair families: ``B = b + int k + int int h``;
  thm22 ``a (1 - (p-1) int B a^(p-1))^(1/(1-p))``;
  thm32 / thm33 ``[A^q + q int B]^(1/q)`` with ``A`` the running sup of ``a``;
  cor35 ``[a^q + q int (R + Q)]^(1/q)`` with ``R = k(t,t) + int h(t,t,r)``
  and ``Q`` the integrals of the kernels' t-derivatives.
* iterated families, with ``w = b^p``:
  ``R[w] = k1(t,t) w + sum_i int k_i(t,t,t2..ti) w(ti)`` and
  ``Q[w] = sum_i int d/dt k_i(t,t1..ti) w(ti)`` over the ordered simplex;
  thm24 ``a (1 - (p-1) int (a/b)^(p-1) (R+Q))^(1/(1-p))``;
  thm34 ``b [a^q + q int (R+Q)]^(1/q)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp
from scipy.optimize import brentq

from families import Family

COEFFS = tuple(f"c{i}" for i in range(6))
_C = sp.symbols(" ".join(COEFFS), positive=True)
_T, _TAU = sp.symbols("t tau", positive=True)
_INNER = sp.symbols("t1 t2 t3 t4", positive=True)
_LOCALS = {
    **dict(zip(COEFFS, _C)),
    "t": _T,
    "s": _INNER[0],
    "r": _INNER[1],
    **{f"t{i + 1}": v for i, v in enumerate(_INNER)},
    "exp": sp.exp,
}
# Points used to bracket the first crossing before brentq refines it.
_SCAN_POINTS = 4097


def _sym(template: str) -> sp.Expr:
    return sp.sympify(template.replace("^", "**"), locals=_LOCALS)


def _simplex(f: sp.Expr, upper: sp.Symbol, names) -> sp.Expr:
    """Integral of ``f`` over upper >= names[0] >= names[1] >= ... >= 0."""
    bounds = [upper, *names[:-1]]
    for name, top in reversed(list(zip(names, bounds))):
        f = sp.integrate(f, (name, 0, top))
    return f


def _pair_B(fam: Family) -> sp.Expr:
    s, r = _INNER[0], _INNER[1]
    out = _sym(fam.b)
    k, h = fam.pair
    if k is not None:
        out += _simplex(_sym(k), _T, [s])
    if h is not None:
        out += _simplex(_sym(h), _T, [s, r])
    return out


def _cor35_RQ(fam: Family) -> sp.Expr:
    s, r = _INNER[0], _INNER[1]
    k, h = (None if x is None else _sym(x) for x in fam.pair)
    out = sp.Integer(0)
    if k is not None:
        out += k.subs(s, _T) + _simplex(sp.diff(k, _T), _T, [s])
    if h is not None:
        out += _simplex(h.subs(s, _T), _T, [r]) + _simplex(sp.diff(h, _T), _T, [s, r])
    return out


def _iterated_RQ(fam: Family, w: sp.Expr) -> sp.Expr:
    out = sp.Integer(0)
    for i, src in enumerate(fam.iterated, start=1):
        k = _sym(src)
        names = list(_INNER[:i])
        wi = w.subs(_T, names[-1])
        out += _simplex(sp.diff(k, _T) * wi, _T, names)
        pinned = k.subs(names[0], _T)
        if i == 1:
            out += pinned * w
        else:
            out += _simplex(pinned * wi, _T, names[1:])
    return out


@dataclass(frozen=True)
class Reference:
    """Vectorised closed forms of one family, as functions of (t, coeffs).

    ``integral(t, c)`` is the integral part G(t) of the bracket; the bound
    is assembled from it in :meth:`bracket` and :meth:`bound` in float64.
    """

    family: Family
    integral: object
    datum: object
    coefficient: object

    def _eval(self, fn, t, c):
        with np.errstate(all="ignore"):
            return np.broadcast_to(np.asarray(fn(t, *c), dtype=float), np.shape(t))

    def bracket(self, t, c) -> np.ndarray:
        """The quantity whose threshold crossing is the horizon."""
        fam = self.family
        q = 1.0 - fam.p
        G = self._eval(self.integral, t, c)
        if fam.theorem in ("thm22", "thm24"):
            return G  # valid while < 1
        a = self._eval(self.datum, t, c)
        if fam.theorem == "thm33":
            a = np.maximum.accumulate(a)
        with np.errstate(all="ignore"):
            return np.power(a, q) + q * G  # valid while > 0

    def valid(self, bracket: np.ndarray) -> np.ndarray:
        if self.family.theorem in ("thm22", "thm24"):
            return np.isfinite(bracket) & (bracket < 1.0)
        return np.isfinite(bracket) & (bracket > 0.0)

    def bound(self, t, c) -> np.ndarray:
        fam = self.family
        p, q = fam.p, 1.0 - fam.p
        X = self.bracket(t, c)
        with np.errstate(all="ignore"):
            if fam.theorem in ("thm22", "thm24"):
                out = self._eval(self.datum, t, c) * np.power(1.0 - X, 1.0 / (1.0 - p))
            else:
                out = np.power(X, 1.0 / q)
                if fam.theorem == "thm34":
                    out = out * self._eval(self.coefficient, t, c)
        return np.where(self.valid(X), out, np.nan)

    def horizon(self, c) -> float | None:
        """First time in [0, beta] where the bracket leaves its valid side."""
        beta = self.family.beta
        ts = np.linspace(0.0, beta, _SCAN_POINTS)
        ok = self.valid(self.bracket(ts, c))
        if ok.all():
            return None
        j = int(np.argmin(ok))
        if j == 0:
            return 0.0
        thr = 1.0 if self.family.theorem in ("thm22", "thm24") else 0.0
        f = lambda x: float(self.bracket(np.array([x]), c)[0]) - thr
        if not np.isfinite(f(ts[j])):
            return float(ts[j])
        return float(brentq(f, ts[j - 1], ts[j], xtol=1e-14))


@lru_cache(maxsize=None)
def derive(fam: Family) -> Reference:
    """Integrate the family's bound formula in closed form."""
    p = sp.nsimplify(fam.p)
    a = _sym(fam.a)
    b = _sym(fam.b) if fam.b is not None else sp.Integer(0)
    th = fam.theorem
    if th in ("thm22", "thm32", "thm33"):
        B = _pair_B(fam)
        integrand = (p - 1) * B * a ** (p - 1) if th == "thm22" else B
    elif th == "cor35":
        integrand = _cor35_RQ(fam)
    elif th in ("thm24", "thm34"):
        RQ = _iterated_RQ(fam, sp.expand(b**p))
        integrand = (p - 1) * sp.expand((a / b) ** (p - 1)) * RQ if th == "thm24" else RQ
    else:
        raise ValueError(f"no reference for {th!r}")
    G = sp.integrate(sp.expand(integrand).subs(_T, _TAU), (_TAU, 0, _T))
    args = (_T, *_C)
    return Reference(
        family=fam,
        integral=sp.lambdify(args, G, "numpy"),
        datum=sp.lambdify(args, a, "numpy"),
        coefficient=sp.lambdify(args, b, "numpy"),
    )
