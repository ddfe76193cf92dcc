"""Certified Gronwall-Bellman bounds for Volterra integral inequalities.

The package computes explicit a priori bounds for unknowns satisfying
Volterra-type integral inequalities with a power nonlinearity u^p,
detects the horizon up to which each bound is valid (blow-up time), and
verifies the bounds against a brute-force Picard extremal-solution
oracle on a shared uniform grid.
"""

from . import bounds, expr, grid, kernels, oracle
from .bounds import *  # noqa: F403
from .expr import *  # noqa: F403
from .grid import *  # noqa: F403
from .kernels import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

# The package exports exactly what its modules export.
__all__ = [
    *bounds.__all__, *expr.__all__, *grid.__all__, *kernels.__all__, *oracle.__all__
]
