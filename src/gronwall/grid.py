"""Uniform grids on [alpha, beta] and real-valued grid functions.

Everything downstream (kernels, bounds, the Picard oracle) lives on one
shared uniform grid; all integrals are composite trapezoid sums over its
nodes, so cumulative integrals, bound formulas and the oracle agree on
where values live.  Grids and grid functions are immutable.  A grid
function is only its grid and its checked, read-only values: it has no
arithmetic, and code computes on the raw ``values`` under its own
``np.errstate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as expr_mod
from .expr import Expr, free_variables

__all__ = [
    "Grid",
    "GridFunction",
    "GridError",
    "NonFiniteSampleError",
    "sample",
    "cumulative_trapezoid",
]


class GridError(ValueError):
    pass


class NonFiniteSampleError(GridError):
    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class Grid:
    """Uniform partition of ``[alpha, beta]`` into ``m`` subintervals (m+1 nodes)."""

    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise GridError("grid endpoints must be finite")
        if not self.alpha < self.beta:
            raise GridError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if self.m < 1:
            raise GridError(f"need m >= 1, got {self.m}")

    @property
    def dt(self) -> float:
        return (self.beta - self.alpha) / self.m

    @cached_property
    def nodes(self) -> np.ndarray:
        try:
            t = np.linspace(self.alpha, self.beta, self.m + 1)
        except (MemoryError, ValueError):  # numpy's two ways to refuse a size
            raise GridError(f"cannot allocate the {self.m + 1} nodes of m = {self.m}") from None
        if not (t[1:] > t[:-1]).all():
            raise GridError("grid nodes are not strictly increasing (m too large?)")
        t.flags.writeable = False
        return t


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a real function at the nodes of a :class:`Grid`.

    Values may contain non-finite entries (e.g. a bound past its horizon
    is NaN); their owner locates them, as ``bounds.detect_horizon`` does
    for a bound.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.grid.m + 1,):
            raise GridError(
                f"expected {self.grid.m + 1} values, got shape {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def sample(e: Expr, g: Grid) -> GridFunction:
    """Evaluate an expression in the variable ``t`` at every grid node.

    Raises :class:`NonFiniteSampleError` naming the first node where the
    value is not finite (e.g. a pole inside the interval).
    """
    extra = free_variables(e) - {"t"}
    if extra:
        raise GridError(f"expression depends on {sorted(extra)}, expected only 't'")
    vals = expr_mod.evaluate(e, {"t": g.nodes})
    if getattr(vals, "shape", None) != (g.m + 1,):  # a float, for a constant
        vals = np.broadcast_to(vals, (g.m + 1,))
    finite = np.isfinite(vals)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NonFiniteSampleError(
            f"non-finite sample at node {j} (t={g.nodes[j]})", node=j
        )
    return GridFunction(g, vals)


def cumulative_trapezoid(f: GridFunction) -> GridFunction:
    """Running integral from alpha by the composite trapezoid rule.

    out[0] = 0 and out[j] = out[j-1] + dt*(f[j-1]+f[j])/2; exact for
    integrands that are piecewise linear on the grid.  Non-finite entries
    propagate silently.
    """
    with np.errstate(all="ignore"):
        out = _running_trapezoid_raw(f.values, f.grid.dt)
    return GridFunction(f.grid, out)


def _running_trapezoid_raw(v: np.ndarray, dt: float) -> np.ndarray:
    """:func:`cumulative_trapezoid` on a raw node array ``v`` with step
    ``dt``, for callers that already hold an ``errstate``: a chain of
    running sums calls it once per level, where a nested ``errstate`` per
    call made the chain about 15 % slower.

    ``np.add.accumulate`` is the sequential sum that ``np.cumsum`` calls,
    without its wrapper, and ``* 0.5`` rounds exactly as ``/ 2.0``."""
    out = np.empty(len(v))
    out[0] = 0.0
    s = v[:-1] + v[1:]
    s *= dt
    s *= 0.5
    np.add.accumulate(s, out=out[1:])
    return out
