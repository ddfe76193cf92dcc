"""The benchmark's input families, written once for ``gronwall`` and sympy.

Each :class:`Family` gives a theorem's data as templates in the
``gronwall`` expression language with coefficients ``c0 .. c5`` left as
names.  ``source`` and ``config`` substitute drawn numbers to make the
program's input; ``reference.derive`` reads the same templates
symbolically.  Nothing here imports sympy, and from ``gronwall`` only the
suite's exponent sets, so building the inputs costs only what a user's own
script would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from gronwall.oracle import _SUITE_P

_COEFF_RE = re.compile(r"\bc([0-5])\b")


@dataclass(frozen=True, eq=False)
class Family:
    """Closed-form data of one family on [0, beta].

    ``a`` is the datum template; a bare coefficient name (``"c4"``) makes it
    the constant datum of thm32, thm34 and cor35.  ``pair`` holds the
    templates of k(t,s) and h(t,s,r); ``iterated`` those of k1..kn over
    t, t1..tn.  ``dt`` maps a kernel's config name (``k``, ``h``, ``k2``) to
    the template of its t-derivative handed to ``gronwall``; kernels absent
    from it take the program's finite-difference path.  ``ranges`` gives
    the interval each coefficient is drawn from.
    """

    theorem: str
    p: float
    a: str
    b: str | None = None
    pair: tuple = (None, None)
    iterated: tuple = ()
    dt: dict = field(default_factory=dict)
    ranges: tuple = ((0.0, 1.0),) * 6
    beta: float = 1.0

    @property
    def const_datum(self) -> bool:
        return _COEFF_RE.fullmatch(self.a) is not None

    def draw(self, rng: np.random.Generator) -> tuple:
        """Coefficients c0..c5, each uniform on its range."""
        return tuple(float(rng.uniform(lo, hi)) for lo, hi in self.ranges)

    def source(self, template: str, coeffs) -> str:
        """``template`` with each ``c<i>`` replaced by the number ``coeffs[i]``."""
        return _COEFF_RE.sub(lambda m: f"({float(coeffs[int(m.group(1))])!r})", template)

    def kernels(self) -> list:
        """(config name, template) of each kernel present."""
        if self.iterated:
            return [(f"k{i}", src) for i, src in enumerate(self.iterated, start=1)]
        return [(name, src) for name, src in zip(("k", "h"), self.pair) if src is not None]

    def config(self, coeffs, m: int) -> str:
        """The scenario file ``gronwall`` reads for these coefficients."""
        lines = [
            "[problem]",
            f"theorem = {self.theorem}",
            f"p = {self.p!r}",
            "alpha = 0",
            f"beta = {self.beta!r}",
        ]
        if self.const_datum:
            lines.append(f"a = {coeffs[int(self.a[1:])]!r}")
        else:
            lines.append(f"a_expr = {self.source(self.a, coeffs)}")
        if self.b is not None:
            lines.append(f"b_expr = {self.source(self.b, coeffs)}")
        for name, src in self.kernels():
            lines.append(f"{name}_expr = {self.source(src, coeffs)}")
            if name in self.dt:
                lines.append(f"{name}_dt_expr = {self.source(self.dt[name], coeffs)}")
        lines += ["", "[grid]", f"m = {m}", ""]
        return "\n".join(lines)


# --- suite: the random families of `gronwall suite` -----------------------
#
# `oracle.random_instance` documents them: c0..c5 uniform on [0, 1] from
# default_rng(seed), then p drawn from the family's admissible subset.


@lru_cache(maxsize=None)
def suite_family(theorem: str, p: float) -> Family:
    if theorem == "cor35":
        return Family("cor35", p, a="c4", pair=("c2*exp(t-s)", "c3"),
                      dt={"k": "c2*exp(t-s)"})
    a = "c4" if theorem == "thm32" else "c4 + c5*t"
    return Family(theorem, p, a=a, b="c0 + c1*t", pair=("c2*exp(-(t-s))", "c3"))


def suite_draw(theorem: str, seed: int) -> tuple[tuple, float]:
    """The coefficients and exponent `gronwall suite` uses for ``seed``."""
    rng = np.random.default_rng(seed)
    c = tuple(float(x) for x in rng.uniform(0.0, 1.0, 6))
    p = float(rng.choice(_SUITE_P[theorem]))
    return c, p


# --- iterated: thm24 / thm34 with t-dependent kernels of arity 1-3 --------
#
# b = (1 + c0 t)^2 makes w = b^p a polynomial for p in {1/2, 2}, so every
# simplex integral of the reference is a polynomial.  Narrow coefficient
# ranges keep the Picard sweep count, and so the cost of a case, nearly
# the same for every seed; all bounds stay finite on [0, 1].  The five
# structures have well separated costs, so the median case (the thm34
# m = 24 one) and the median bound (the thm34 m = 32 one) each fall inside
# one structure.

_K1 = "c1*(1 + t*t1)"
_K2 = "c2*(t + t1)*t2"
_K3 = "c3*t*(t1 + t2)*t3"
_K1_DT = "c1*t1"
_K2_DT = "c2*t2"
_K3_DT = "c3*(t1 + t2)*t3"
_ITER_RANGES = ((0.18, 0.22), (0.45, 0.55), (0.35, 0.45), (0.25, 0.35), (0.5, 0.6), (0.4, 0.5))

ITERATED = (
    (Family("thm34", 0.5, a="c4", b="(1 + c0*t)^2", iterated=(_K1, _K2, _K3),
            dt={"k1": _K1_DT, "k3": _K3_DT}, ranges=_ITER_RANGES), 32),
    (Family("thm24", 2.0, a="0.5*c4*(1 + c0*t)^2*(1 + c5*t)", b="(1 + c0*t)^2",
            iterated=(_K1, _K2, _K3), dt={"k2": _K2_DT}, ranges=_ITER_RANGES), 24),
    (Family("thm34", 0.5, a="c4", b="(1 + c0*t)^2", iterated=(_K1, _K2),
            dt={"k2": _K2_DT}, ranges=_ITER_RANGES), 48),
    (Family("thm24", 2.0, a="0.5*c4*(1 + c0*t)^2*(1 + c5*t)", b="(1 + c0*t)^2",
            iterated=(_K1, _K2), dt={"k1": _K1_DT}, ranges=_ITER_RANGES), 40),
    (Family("thm34", 0.5, a="c4", b="(1 + c0*t)^2", iterated=(_K1, _K2, _K3),
            dt={"k2": _K2_DT}, ranges=_ITER_RANGES), 24),
)


# --- refine: bound-only Richardson studies with t-dependent h -------------
#
# thm33 and thm22 share h, so the two middle studies of a round cost the
# same and the medians of a round do not straddle two different costs.

REFINE_M0 = 256
REFINE_LEVELS = 3
_REF_RANGES = ((0.2, 0.4), (0.1, 0.3), (0.2, 0.4), (0.2, 0.4), (0.5, 0.7), (0.1, 0.3))

REFINE = (
    Family("cor35", 3.0, a="c4", pair=("c2*exp(t-s)", "c3*t^2*(1 + r)"),
           dt={"k": "c2*exp(t-s)", "h": "2*c3*t*(1 + r)"}, ranges=_REF_RANGES),
    Family("thm33", 2.0, a="c4 + c5*t", b="c0 + c1*t",
           pair=("c2*exp(-(t-s))", "c3*t^2*(1 + r)"), ranges=_REF_RANGES),
    Family("thm22", 2.0, a="c4 + c5*t", b="c0 + c1*t",
           pair=("c2*exp(-(t-s))", "c3*t^2*(1 + r)"), ranges=_REF_RANGES),
    Family("thm32", 0.5, a="c4", b="c0 + c1*t",
           pair=("c2*exp(-(t-s))", "c3*t*(1 + s*r)"), ranges=_REF_RANGES),
)


# --- long_grid: `gronwall verify` at large m on cheap kernels -------------
#
# Two of the five cases per round are thm32 with k at m = 2048, so that both
# the median case and the median bound fall inside that one structure: two
# cases lie below it on both counts, two above.

_LONG_RANGES = ((0.2, 0.4), (0.1, 0.3), (0.2, 0.4), (0.0, 0.0), (0.5, 0.7), (0.1, 0.3))

LONG_GRID = (
    (Family("thm33", 3.0, a="c4 + c5*t", b="c0", ranges=_LONG_RANGES), 4096),
    (Family("thm22", 2.0, a="c4 + c5*t", b="c0 + c1*t", ranges=_LONG_RANGES), 8192),
    (Family("thm32", 0.5, a="c4", b="c0 + c1*t", pair=("c2*exp(-(t-s))", None),
            ranges=_LONG_RANGES), 4096),
    (Family("thm32", 0.5, a="c4", b="c0 + c1*t", pair=("c2*exp(-(t-s))", None),
            ranges=_LONG_RANGES), 2048),
    (Family("thm32", 2.0, a="c4", b="c0 + c1*t", pair=("c2*exp(-(t-s))", None),
            ranges=_LONG_RANGES), 2048),
)
