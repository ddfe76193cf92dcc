"""Certified Gronwall-Bellman bounds for Volterra integral inequalities.

The package computes explicit a priori bounds for unknowns satisfying
Volterra-type integral inequalities with a power nonlinearity u^p,
detects the horizon up to which each bound is valid (blow-up time), and
verifies the bounds against a brute-force Picard extremal-solution
oracle on a shared uniform grid.
"""

from .bounds import (
    BoundResult,
    HorizonKind,
    HypothesisError,
    ProblemInstance,
    THEOREMS,
    bykov_bound,
    compute_bound,
    cor35_bound,
    detect_horizon,
    lemma21_bound,
    lemma31_bound,
    thm22_bound,
    thm23_bound,
    thm24_bound,
    thm32_bound,
    thm33_bound,
    thm34_bound,
)
from .expr import Expr, ExprError, evaluate, free_variables, parse, to_source
from .grid import (
    Grid,
    GridError,
    GridFunction,
    constant,
    cumulative_trapezoid,
    running_sup,
    sample,
)
from .kernels import (
    Kernel,
    KernelError,
    KernelSet,
    NegativeKernelError,
    apply_Q,
    apply_R,
    compute_B,
    kernel_dt,
)
from .oracle import (
    DominanceReport,
    OracleError,
    PicardOutcome,
    PicardStatus,
    check_admissible,
    closed_form,
    dominance_case,
    picard_extremal,
    random_instance,
    rhs_operator,
    verify_dominance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "HorizonKind", "HypothesisError", "ProblemInstance",
    "THEOREMS", "bykov_bound", "compute_bound", "cor35_bound",
    "detect_horizon", "lemma21_bound", "lemma31_bound", "thm22_bound",
    "thm23_bound", "thm24_bound", "thm32_bound", "thm33_bound",
    "thm34_bound",
    "Expr", "ExprError", "evaluate", "free_variables", "parse", "to_source",
    "Grid", "GridError", "GridFunction", "constant", "cumulative_trapezoid",
    "running_sup", "sample",
    "Kernel", "KernelError", "KernelSet", "NegativeKernelError",
    "apply_Q", "apply_R", "compute_B", "kernel_dt",
    "DominanceReport", "OracleError", "PicardOutcome", "PicardStatus",
    "check_admissible", "closed_form", "dominance_case", "picard_extremal",
    "random_instance", "rhs_operator", "verify_dominance",
]
