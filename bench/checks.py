"""Checks of ``gronwall``'s outputs against the sympy references.

Every check returns a list of problems; an empty list means the output is
right.  Allowances come from the trapezoid rule's O(dt^2) error: at node j
a value may differ from the continuum reference by

    ROUND_RTOL * (1 + |ref_j|) + DT2_FACTOR * dt^2 * (t_j - alpha) * (1 + kappa_j) * |ref_j|

where ``kappa_j`` is the conditioning of the bound in its bracket (the
bracket's distance from the threshold, inverted).  At node 0 nothing is
integrated yet, so only round-off is allowed there; a bound scaled by a
constant is therefore caught at node 0 on any grid.  Away from node 0 the
allowance is twice the largest error seen, so a kernel term dropped from
the bound shows even on the coarse grids of the iterated families.
Comparisons stop at ``GUARD`` of the reference horizon, where the bound's
steepness, not the quadrature order, sets the difference.
"""

from __future__ import annotations

import numpy as np

from reference import Reference

ROUND_RTOL = 1e-12
# The largest error seen over every benchmark family, as a multiple of
# dt^2 (t - alpha) (1 + kappa) |ref|, was 0.49 (suite thm22, p = 3,
# m = 256); the iterated families reach 0.28 over twenty seeds.
DT2_FACTOR = 1.0
GUARD = 0.9
RATIO_TOL = 0.05
# The gate fault's violations, relative to 1 + bound, are 1.1e-9 to
# 9.2e-9 of trapezoid noise on the suite's 34 thm32 cases; a FAIL by more
# than twice the largest is a real violation.
GATE_NOISE_RTOL = 2e-8


def allowance(ref: Reference, t, c, ref_bound, dt: float) -> np.ndarray:
    X = ref.bracket(t, c)
    threshold = 1.0 if ref.family.theorem in ("thm22", "thm24") else 0.0
    with np.errstate(all="ignore"):
        kappa = 1.0 / np.abs(X - threshold)
    size = np.abs(ref_bound)
    return ROUND_RTOL * (1.0 + size) + DT2_FACTOR * dt**2 * (t - t[0]) * (1.0 + kappa) * size


def compared_nodes(ref: Reference, t, c, last: int) -> np.ndarray:
    """Node indices 0..last that lie inside GUARD of the reference horizon."""
    h = ref.horizon(c)
    idx = np.arange(last + 1)
    if h is not None:
        idx = idx[t[idx] <= t[0] + GUARD * (h - t[0])]
    return idx


def check_bound(ref: Reference, c, t, bound, horizon_node: int, horizon_time, full: bool) -> list:
    """The bound curve and its horizon against the continuum reference."""
    problems = []
    dt = float(t[1] - t[0])
    h = ref.horizon(c)
    beta = float(t[-1])
    got = beta if full else float(horizon_time)
    want = beta if h is None else h
    if abs(got - want) > dt:
        problems.append(f"horizon {got!r}, reference {want!r}")
    idx = compared_nodes(ref, t, c, horizon_node)
    if idx.size == 0:
        return problems + ["no node to compare"]
    rb = ref.bound(t, c)
    bad = ~(np.abs(np.asarray(bound)[idx] - rb[idx]) <= allowance(ref, t, c, rb, dt)[idx])
    if bad.any():
        j = int(idx[np.argmax(bad)])
        problems.append(f"bound at node {j} is {bound[j]!r}, reference {rb[j]!r}")
    return problems


def check_extremal(ref: Reference, c, t, u, last: int) -> list:
    """Finite, nondecreasing and below the reference bound on nodes 0..last."""
    idx = compared_nodes(ref, t, c, last)
    uu = np.asarray(u)[idx]
    if not np.isfinite(uu).all():
        j = int(idx[np.argmin(np.isfinite(uu))])
        return [f"extremal non-finite at node {j}"]
    problems = []
    drops = np.diff(uu) < -ROUND_RTOL * (1.0 + np.abs(uu[1:]))
    if drops.any():
        problems.append(f"extremal decreases after node {int(idx[np.argmax(drops)])}")
    dt = float(t[1] - t[0])
    rb = ref.bound(t, c)
    over = uu - rb[idx] > allowance(ref, t, c, rb, dt)[idx]
    if over.any():
        j = int(idx[np.argmax(over)])
        problems.append(f"extremal {u[j]!r} above reference bound {rb[j]!r} at node {j}")
    return problems


def check_richardson(csv_text: str) -> list:
    """Each ratio of successive level differences lies near 4."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    ratios = [float(r[2]) for r in rows if len(r) == 3 and r[2]]
    if len(ratios) != len(rows) - 1 or not ratios:
        return [f"expected {len(rows) - 1} ratios, got {csv_text!r}"]
    return [f"Richardson ratio {x!r} not near 4" for x in ratios if not abs(x / 4.0 - 1.0) <= RATIO_TOL]


def classify_failure(theorem: str, d: dict, extremal_problems: list) -> str | None:
    """Name the known fault behind a FAIL verdict, or None if it is unknown.

    ``d`` holds the case's extremal ``u``, bound, ``compare_node`` and
    ``diverged_node``.  ``causality`` (cor35 only): node 0 can never
    diverge, since nothing is integrated there, yet the oracle reports it
    did and returns no finite extremal.  ``gate`` (thm32 only, whose
    extremal can meet its bound to within trapezoid noise): the extremal
    meets every reference check and exceeds the bound by no more than
    ``GATE_NOISE_RTOL`` relative, which the 1e-9 dominance gate reads as
    a violation.
    """
    u = np.asarray(d["u"])
    if theorem == "cor35" and d["diverged_node"] == 0 and not np.isfinite(u).any():
        return "causality"
    n = d["compare_node"] + 1
    bound = np.asarray(d["bound"])[:n]
    excess = (u[:n] - bound) / (1.0 + np.abs(bound))
    if theorem == "thm32" and not extremal_problems and excess.max() <= GATE_NOISE_RTOL:
        return "gate"
    return None
