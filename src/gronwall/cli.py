"""Config-driven command line: bound / verify / horizon / convergence / suite.

Scenario configs are plain text, ``key = value`` lines grouped under
``[problem]``, ``[grid]``, ``[oracle]`` and ``[run]`` headers with ``#``
comments.  Outputs are CSV with numbers at 17 significant digits and LF
line endings, so identical configs (and seeds) produce bit-identical
files.  Exit codes: 0 success / verification PASS, 1 verification FAIL,
2 configuration or hypothesis error, or an oracle run or a convergence
study that leaves nothing to compare.  ``main`` can be called repeatedly
in one process; every call shares one argument parser, built on the
first call.

The ``[problem]`` keys that a theorem takes are read from its row of the
theorem table ``bounds._FAMILIES``, as its instance's hypotheses are.

A kernel's t-derivative is always the exact derivative of its expression.
The ``k_dt_expr``, ``h_dt_expr`` and ``k<i>_dt_expr`` keys are kept only
because the benchmark's configs carry them: each is checked against the
exact derivative on a fixed lattice of simplex points in [alpha, beta]
(a disagreement is a config error) and never used.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import _FAMILIES, HypothesisError, ProblemInstance, THEOREMS, compute_bound
from .expr import Expr, ExprError, evaluate, parse, to_source
from .grid import Grid, GridError, sample
from .kernels import MAX_ITERATED_KERNELS, Kernel, KernelError, KernelSet
from .oracle import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SUITE_FAMILIES,
    VERIFY_RTOL,
    OracleError,
    check_dominance,
    random_instance,
)

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "main", "console_main"]

_PROBLEM_KEYS = {
    "theorem", "p", "alpha", "beta", "a", "a_expr", "b_expr", "sigma_expr",
    "k_expr", "k_dt_expr", "h_expr", "h_dt_expr",
}
# The indices i of the iterated kernels' k<i>_expr keys.
_ITERATED_INDICES = range(1, MAX_ITERATED_KERNELS + 1)
for _i in _ITERATED_INDICES:
    _PROBLEM_KEYS.add(f"k{_i}_expr")
    _PROBLEM_KEYS.add(f"k{_i}_dt_expr")

_KNOWN_KEYS = {
    "problem": _PROBLEM_KEYS,
    "grid": {"m"},
    "oracle": {"tol", "max_iter"},
    "run": {"seed", "cases"},
}

DEFAULT_SUITE_M = 256
DEFAULT_SUITE_CASES = 100
DEFAULT_SUITE_SEED = 42

# A given *_dt_expr must match the exact derivative at every ordered point
# (t >= t1 >= ...) of DT_CHECK_NODES equally spaced nodes per axis of
# [alpha, beta], within DT_CHECK_RTOL of the exact value; two non-finite
# values agree.
DT_CHECK_NODES = 7
DT_CHECK_RTOL = 1e-9

# Richardson comparisons stop 10% short of the shared horizon: next to a
# blow-up the bound is steep enough that node-level differences between
# levels are dominated by the pole, not by quadrature order.
HORIZON_GUARD = 0.9

# The finest grid `convergence` may reach through --levels, m * 2^(levels-1).
# 2^22 is 512 times the largest m the benchmark's long_grid runs (8192).  One
# node array there is 32 MiB: a 3-level thm32 study with a separable kernel
# peaks near 90 MB at a finest m of 2^19, so about 0.5 GB at the cap, while a
# few levels more reach tens of GB and the process is killed without a word.
MAX_CONVERGENCE_M = 2**22


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _parse_sections(text: str) -> dict:
    data = {name: {} for name in _KNOWN_KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if key in data[section]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        data[section][key] = (value, lineno)
    return data


def _take_float(entries: dict, key: str):
    if key not in entries:
        return None
    value, lineno = entries[key]
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None


def _take_int(entries: dict, key: str):
    if key not in entries:
        return None
    value, lineno = entries[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None


def _take_expr(entries: dict, key: str, variables) -> Expr | None:
    if key not in entries:
        return None
    value, lineno = entries[key]
    try:
        return parse(value, variables)
    except ExprError as err:
        raise ConfigError(f"{key}: {err}", lineno) from None


def _take_kernel(
    entries: dict, arity: int, key: str, dt_key: str, interval: tuple
) -> Kernel | None:
    if dt_key in entries and key not in entries:
        raise ConfigError(f"{dt_key} given without {key}", entries[dt_key][1])
    if key not in entries:
        return None
    body, lineno = entries[key]
    try:
        kernel = Kernel(arity, body)
    except (ExprError, KernelError) as err:
        raise ConfigError(f"{key}: {err}", lineno) from None
    if dt_key in entries:
        _check_given_dt(kernel, key, entries[dt_key], dt_key, interval)
    return kernel


def _check_given_dt(
    kernel: Kernel, key: str, entry: tuple, dt_key: str, interval: tuple
) -> None:
    """Raise :class:`ConfigError` unless the given derivative ``entry``
    agrees with ``kernel.dt_body`` on the lattice described at
    ``DT_CHECK_NODES``."""
    source, lineno = entry
    try:
        given = Kernel(kernel.arity, source).body
    except (ExprError, KernelError) as err:
        raise ConfigError(f"{dt_key}: {err}", lineno) from None
    if None in interval:
        raise ConfigError(f"{dt_key} is checked on [alpha, beta]; give both", lineno)
    names = ["t", *(f"t{i}" for i in range(1, kernel.arity + 1))]
    nodes = np.linspace(*interval, DT_CHECK_NODES)[::-1]
    points = np.array(list(itertools.combinations_with_replacement(nodes, len(names))))
    ctx = dict(zip(names, points.T))
    want, got = (
        np.broadcast_to(evaluate(e, ctx), len(points)) for e in (kernel.dt_body, given)
    )
    agree = np.isclose(got, want, rtol=DT_CHECK_RTOL, atol=0.0)
    agree |= ~(np.isfinite(got) | np.isfinite(want))
    if not agree.all():
        j = int(np.argmin(agree))
        at = ", ".join(f"{n}={x:.6g}" for n, x in zip(names, points[j]))
        raise ConfigError(
            f"{dt_key} disagrees with d/dt of {key}, which is "
            f"{to_source(kernel.dt_body)}, at {at}: {got[j]:.6g} given, "
            f"{want[j]:.6g} exact",
            lineno,
        )


@dataclass(eq=False)
class ScenarioConfig:
    """Parsed scenario: expressions are parsed, data is sampled lazily."""

    theorem: str
    p: float | None = None
    alpha: float | None = None
    beta: float | None = None
    a_const: float | None = None
    a_expr: Expr | None = None
    b_expr: Expr | None = None
    sigma_expr: Expr | None = None
    pair_k: Kernel | None = None
    pair_h: Kernel | None = None
    iterated: tuple = ()
    m: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    seed: int | None = None
    cases: int | None = None

    def build_instance(self) -> ProblemInstance:
        for name in ("alpha", "beta"):
            if getattr(self, name) is None:
                raise ConfigError(f"[problem] {name} is required")
        if self.m is None:
            raise ConfigError("[grid] m is required")
        row = _FAMILIES[self.theorem]
        p = self.p
        if p is None:
            if row.p != "= 1":
                raise ConfigError("[problem] p is required")
            p = 1.0
        g = Grid(self.alpha, self.beta, self.m)
        if row.kernels == "iterated":
            kernels = KernelSet.iterated(self.iterated)
        else:
            kernels = KernelSet.pair(self.pair_k, self.pair_h)
        return ProblemInstance(
            self.theorem,
            p,
            g,
            a_const=self.a_const,
            a_fn=sample(self.a_expr, g) if self.a_expr is not None else None,
            b=sample(self.b_expr, g) if self.b_expr is not None else None,
            sigma=sample(self.sigma_expr, g) if self.sigma_expr is not None else None,
            kernels=kernels,
        )


def load_config(path: str) -> ScenarioConfig:
    """Parse and cross-validate a scenario file (expressions included)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _parse_sections(fh.read())
    problem = data["problem"]
    if "theorem" not in problem:
        raise ConfigError("[problem] theorem is required")
    theorem, lineno = problem["theorem"]
    if theorem not in THEOREMS:
        raise ConfigError(
            f"unknown theorem {theorem!r}; expected one of {', '.join(THEOREMS)}",
            lineno,
        )

    if "a" in problem and "a_expr" in problem:
        raise ConfigError(
            "give exactly one of 'a' (constant) or 'a_expr' (function), not both",
            problem["a_expr"][1],
        )

    row = _FAMILIES[theorem]
    iterated_present = [i for i in _ITERATED_INDICES if f"k{i}_expr" in problem]
    if row.kernels == "iterated":
        for key in ("k_expr", "h_expr"):
            if key in problem:
                raise ConfigError(
                    f"{key} does not apply to {theorem}; use k1_expr..kn_expr",
                    problem[key][1],
                )
        if not iterated_present:
            raise ConfigError(f"{theorem} requires k1_expr (and optionally k2..kn)")
        n = max(iterated_present)
        missing = [i for i in range(1, n + 1) if i not in iterated_present]
        if missing:
            raise ConfigError(
                f"iterated kernels must be contiguous from k1; missing k{missing[0]}_expr"
            )
    else:
        if iterated_present:
            key = f"k{iterated_present[0]}_expr"
            raise ConfigError(
                f"{key} does not apply to {theorem}; use k_expr/h_expr",
                problem[key][1],
            )
        if row.kernels == "k":
            for key in ("h_expr", "h_dt_expr"):
                if key in problem:
                    raise ConfigError(
                        f"{theorem} has no triple-integral kernel h", problem[key][1]
                    )
    if row.sigma is None and "sigma_expr" in problem:
        takers = ", ".join(t for t, r in _FAMILIES.items() if r.sigma is not None)
        raise ConfigError(
            f"sigma_expr applies only to {takers}, not {theorem}",
            problem["sigma_expr"][1],
        )
    if row.b is None and "b_expr" in problem:
        raise ConfigError(f"{theorem} has no coefficient b(t)", problem["b_expr"][1])

    tol = _take_float(data["oracle"], "tol")
    max_iter = _take_int(data["oracle"], "max_iter")
    interval = (_take_float(problem, "alpha"), _take_float(problem, "beta"))
    p, a = _take_float(problem, "p"), _take_float(problem, "a")
    # Before any kernel is taken: a given *_dt_expr is checked on [alpha, beta].
    for key, value in (("alpha", interval[0]), ("beta", interval[1]), ("a", a), ("p", p)):
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}", problem[key][1])
    cfg = ScenarioConfig(
        theorem=theorem,
        p=p,
        alpha=interval[0],
        beta=interval[1],
        a_const=a,
        a_expr=_take_expr(problem, "a_expr", {"t"}),
        b_expr=_take_expr(problem, "b_expr", {"t"}),
        sigma_expr=_take_expr(problem, "sigma_expr", {"t"}),
        pair_k=_take_kernel(problem, 1, "k_expr", "k_dt_expr", interval),
        pair_h=_take_kernel(problem, 2, "h_expr", "h_dt_expr", interval),
        # Every k<i> is taken, so that a k<i>_dt_expr without its k<i>_expr is refused.
        iterated=tuple(filter(None, (
            _take_kernel(problem, i, f"k{i}_expr", f"k{i}_dt_expr", interval)
            for i in _ITERATED_INDICES
        ))),
        m=_take_int(data["grid"], "m"),
        tol=DEFAULT_TOL if tol is None else tol,
        max_iter=DEFAULT_MAX_ITER if max_iter is None else max_iter,
        seed=_take_int(data["run"], "seed"),
        cases=_take_int(data["run"], "cases"),
    )
    if not 0 < cfg.tol < np.inf:
        raise ConfigError(
            f"tol must be positive and finite, got {cfg.tol}",
            data["oracle"]["tol"][1],
        )
    if cfg.max_iter < 1:
        raise ConfigError("max_iter must be at least 1", data["oracle"]["max_iter"][1])
    return cfg


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: str, *columns) -> str:
    """CSV text: ``header``, then one row per index of the equal-length
    float arrays ``columns``, each value printed as ``%.17g``, the text
    that ``_fmt`` gives."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [header, *(row % values for values in zip(*(c.tolist() for c in columns)))]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_bound(cfg: ScenarioConfig, out_path: str | None) -> int:
    inst = cfg.build_instance()
    br = compute_bound(inst)
    n = br.horizon_node + 1
    _emit(_csv("t,bound", inst.grid.nodes[:n], br.bound.values[:n]), out_path)
    return 0


def cmd_verify(cfg: ScenarioConfig, out_path: str | None) -> int:
    inst = cfg.build_instance()
    br, outcome, report, why = check_dominance(inst, cfg.tol, cfg.max_iter, VERIFY_RTOL)
    if why is not None:  # stricter than suite: a diverged run is refused too
        raise OracleError(why)
    n = report.compare_node
    bvals = br.bound.values[: n + 1]
    uvals = outcome.u.values[: n + 1]
    T = inst.grid.nodes[: n + 1]
    _emit(_csv("t,bound,extremal,margin", T, bvals, uvals, bvals - uvals), out_path)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict} max_violation={_fmt(report.max_violation)} "
        f"min_margin={_fmt(report.min_margin)} compare_node={n} "
        f"cut={report.cut} picard={outcome.status.value} "
        f"iterations={outcome.iterations}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def cmd_horizon(cfg: ScenarioConfig, out_path: str | None) -> int:
    inst = cfg.build_instance()
    br = compute_bound(inst)
    text = (
        "horizon_time,horizon_node,kind\n"
        f"{_fmt(br.horizon_time)},{br.horizon_node},{br.horizon_kind.value}\n"
    )
    _emit(text, out_path)
    return 0


def cmd_convergence(cfg: ScenarioConfig, levels: int, out_path: str | None) -> int:
    if levels < 2:
        raise ConfigError("convergence needs at least 2 levels")
    if cfg.m is None:
        raise ConfigError("[grid] m is required")
    # Past 64 doublings any m is over the cap, so the shift stays small.
    doublings = levels - 1
    if doublings > 64 or cfg.m << doublings > MAX_CONVERGENCE_M:
        if cfg.m > MAX_CONVERGENCE_M and None not in (cfg.alpha, cfg.beta):
            # The config's own grid is past the cap: a size numpy cannot
            # allocate is refused by Grid, as for `bound`, before --levels.
            Grid(cfg.alpha, cfg.beta, cfg.m).nodes
        raise ConfigError(
            f"--levels {levels} takes the finest level to m = {cfg.m} * 2^{doublings}; "
            f"at most m = {MAX_CONVERGENCE_M} is allowed"
        )
    results = []
    for i in range(levels):
        level_cfg = dataclasses.replace(cfg, m=cfg.m * 2**i)
        inst = level_cfg.build_instance()
        results.append(compute_bound(inst))
    alpha = cfg.alpha
    t_cut = min(r.horizon_time for r in results)
    if any(not r.full for r in results):
        t_cut = alpha + HORIZON_GUARD * (t_cut - alpha)
    diffs = []
    for coarse, fine in zip(results, results[1:]):
        n = min(coarse.horizon_node, fine.horizon_node // 2)
        c, f = coarse.bound.values[: n + 1], fine.bound.values[: 2 * n + 1 : 2]
        usable = coarse.bound.grid.nodes[: n + 1] <= t_cut
        usable &= np.isfinite(c) & np.isfinite(f)
        # Node 0 holds the datum on every level, so it alone certifies nothing.
        if not usable[1:].any():
            raise ConfigError(
                f"no node past node 0 is finite on both the m = {coarse.bound.grid.m} "
                f"and m = {fine.bound.grid.m} bounds within their horizons "
                f"(t <= {_fmt(t_cut)}): nothing to compare"
            )
        diffs.append(abs(c[usable] - f[usable]).max())
    lines = ["m,max_diff,ratio"]
    for i, d in enumerate(diffs):
        ratio = _fmt(d / diffs[i + 1]) if i + 1 < len(diffs) and diffs[i + 1] else ""
        lines.append(f"{cfg.m * 2**i},{_fmt(d)},{ratio}")
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_suite(
    cfg: ScenarioConfig,
    cases: int | None,
    seed: int | None,
    out_path: str | None,
) -> int:
    if cfg.theorem not in SUITE_FAMILIES:
        raise ConfigError(
            f"suite supports theorem in {SUITE_FAMILIES}, got {cfg.theorem!r}"
        )
    if cases is None:
        cases = DEFAULT_SUITE_CASES if cfg.cases is None else cfg.cases
    if seed is None:
        seed = DEFAULT_SUITE_SEED if cfg.seed is None else cfg.seed
    if cases < 1:
        raise ConfigError(f"cases must be at least 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    m = cfg.m if cfg.m is not None else DEFAULT_SUITE_M
    lines = ["seed,p,pass,max_violation,horizon_time,picard_status,compare_node"]
    n_failed = 0
    for s in range(seed, seed + cases):
        inst = random_instance(cfg.theorem, s, m)
        try:
            br, outcome, report, _ = check_dominance(inst, cfg.tol, cfg.max_iter)
        except OracleError as err:
            raise OracleError(f"{cfg.theorem} seed {s}: {err}") from None
        n_failed += 0 if report.passed else 1
        lines.append(
            f"{s},{_fmt(inst.p)},{'PASS' if report.passed else 'FAIL'},"
            f"{_fmt(report.max_violation)},{_fmt(br.horizon_time)},"
            f"{outcome.status.value},{report.compare_node}"
        )
    _emit("\n".join(lines) + "\n", out_path)
    print(f"{cases - n_failed}/{cases} cases passed", file=sys.stderr)
    return 0 if n_failed == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    :func:`main` call in the process (``parse_args`` leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="gronwall",
        description="Certified Gronwall-type bounds for Volterra inequalities "
        "with power nonlinearity, verified against a Picard extremal oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bound", "write the bound curve as CSV (t,bound)"),
        ("verify", "compare the bound against the Picard extremal solution"),
        ("horizon", "print the validity horizon"),
        ("convergence", "Richardson refinement study of the bound"),
        ("suite", "run the seeded random dominance suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if name == "convergence":
            p.add_argument("--levels", type=int, default=3)
        if name == "suite":
            p.add_argument("--cases", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "bound":
            return cmd_bound(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "horizon":
            return cmd_horizon(cfg, args.out)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.levels, args.out)
        return cmd_suite(cfg, args.cases, args.seed, args.out)
    except (
        ConfigError, ExprError, KernelError, HypothesisError, GridError, OracleError, OSError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
