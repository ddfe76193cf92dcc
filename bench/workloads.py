"""The four workloads: how each makes its cases, runs one, and checks it.

A workload's :meth:`prepare` builds the inputs of one round from the run's
seed; :meth:`run` is the timed part of a case; :meth:`collect` gathers what
the checks need, after the timer stops; :meth:`check` compares a case's
outputs with the sympy references and returns ``(problems, fault)``, where
``fault`` names a known program fault behind a failed case.

``gronwall`` functions are called through their modules so that the
tracer's wrappers, installed on those modules, see every call.  The
checks import sympy (through ``reference``) only when they run, after the
timed loop, so neither set-up nor ``peak_rss_mb`` includes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field
from time import perf_counter as _now

import numpy as np

from gronwall import bounds, cli, kernels, oracle

import families
from families import Family

SUITE_FAMILIES = ("thm22", "thm32", "thm33", "cor35")
SUITE_SEEDS = range(42, 142)  # the seeds `gronwall suite` runs by default
SUITE_M = 256


@dataclass
class Case:
    """One input: its family and coefficients, grid size, and for the CLI
    workloads the config path (iterated also keeps the built instance)."""

    key: str
    family: Family
    coeffs: tuple
    m: int
    config: str | None = None
    instance: object = None


@dataclass
class Outcome:
    """What a case produced: its finest bound's time, a fingerprint that
    must repeat exactly in every round, and the data the checks read."""

    bound_s: float
    fingerprint: tuple
    data: dict = field(default_factory=dict)


class BoundTimer:
    """Times each ``compute_bound`` call made by the CLI, keeping the result."""

    def __init__(self):
        self.calls: list = []
        self._inner = cli.compute_bound

        def timed(inst):
            t0 = _now()
            result = self._inner(inst)
            self.calls.append((inst.grid.m, _now() - t0, result))
            return result

        cli.compute_bound = timed

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def _library_case(inst):
    t0 = _now()
    br = bounds.compute_bound(inst)
    bound_s = _now() - t0
    out = oracle.picard_extremal(inst)
    rep = oracle.verify_dominance(out.u, br, out.conv_node)
    return bound_s, br, out, rep


def _library_outcome(raw) -> Outcome:
    bound_s, br, out, rep = raw
    return Outcome(
        bound_s,
        (rep.passed, rep.compare_node, out.iterations, br.horizon_node),
        {
            "t": br.bound.grid.nodes, "bound": br.bound.values, "horizon_node": br.horizon_node,
            "horizon_time": br.horizon_time, "full": br.full, "u": out.u.values,
            "compare_node": rep.compare_node, "diverged_node": out.diverged_node,
            "passed": rep.passed, "max_violation": rep.max_violation,
        },
    )


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    tag_by_case = False  # True: every span of a case belongs to the case's m

    def sizes(self, case: Case) -> list:
        """The grid sizes one run of ``case`` works at."""
        return [case.m]

    def collect(self, case: Case, raw) -> Outcome:
        return _library_outcome(raw)


def _check_verified(case: Case, d: dict, allowed_faults=()) -> tuple:
    import checks
    from reference import derive

    ref = derive(case.family)
    problems = checks.check_bound(
        ref, case.coeffs, d["t"], d["bound"], d["horizon_node"], d["horizon_time"], d["full"]
    )
    ext = checks.check_extremal(ref, case.coeffs, d["t"], d["u"], d["compare_node"])
    if d["passed"]:
        return problems + ext, None
    fault = checks.classify_failure(case.family.theorem, d, ext)
    if fault in allowed_faults:
        return problems, fault
    return problems + ext + [f"verdict FAIL (fault {fault}, max_violation {d['max_violation']!r})"], None


class Suite(Workload):
    """`gronwall suite`'s random families at m = 256, seeds 42..141 each.

    The instances do not depend on the run's seed, so the failed cases are
    the same in every run; the seed shuffles the order of each round.
    """

    name = "suite"
    faults = ("gate", "causality")

    def prepare(self, seed: int, workdir: str) -> list:
        cases = []
        for theorem in SUITE_FAMILIES:
            for s in SUITE_SEEDS:
                c, p = families.suite_draw(theorem, s)
                cases.append(Case(f"{theorem}/seed{s}", families.suite_family(theorem, p), c, SUITE_M))
        return cases

    def run(self, case: Case):
        theorem, s = case.key.split("/seed")
        inst = oracle.random_instance(theorem, int(s), case.m)
        return _library_case(inst)

    def check(self, case: Case, out: Outcome) -> tuple:
        return _check_verified(case, out.data, self.faults)


def _write_configs(name: str, specs, rng, workdir: str) -> list:
    cases = []
    for i, (fam, m) in enumerate(specs):
        c = fam.draw(rng)
        path = os.path.join(workdir, f"{name}{i}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fam.config(c, m))
        cases.append(Case(f"{fam.theorem}/m{m}/{i}", fam, c, m, path))
    return cases


class Iterated(Workload):
    """thm24 / thm34 with t-dependent iterated kernels, built from configs."""

    name = "iterated"

    def prepare(self, seed: int, workdir: str) -> list:
        cases = _write_configs(self.name, families.ITERATED, np.random.default_rng(seed), workdir)
        for case in cases:
            case.instance = cli.load_config(case.config).build_instance()
        return cases

    def run(self, case: Case):
        return _library_case(case.instance)

    def check(self, case: Case, out: Outcome) -> tuple:
        return _check_verified(case, out.data)


class Refine(Workload):
    """Bound-only Richardson studies through `gronwall convergence`."""

    name = "refine"

    def __init__(self):
        self.timer = BoundTimer()

    def prepare(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        self.out = os.path.join(workdir, "convergence.csv")
        specs = [(fam, families.REFINE_M0) for fam in families.REFINE]
        return _write_configs(self.name, specs, rng, workdir)

    def sizes(self, case: Case) -> list:
        return [case.m * 2**i for i in range(families.REFINE_LEVELS)]

    def run(self, case: Case):
        return cli.main(["convergence", "--config", case.config,
                         "--levels", str(families.REFINE_LEVELS), "--out", self.out])

    def collect(self, case: Case, rc) -> Outcome:
        calls = self.timer.take()
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        _, bound_s, br = calls[-1]
        return Outcome(bound_s, (rc, text), {
            "rc": rc, "csv": text, "levels": [c[0] for c in calls], "t": br.bound.grid.nodes,
            "bound": br.bound.values, "horizon_node": br.horizon_node,
            "horizon_time": br.horizon_time, "full": br.full,
        })

    def check(self, case: Case, out: Outcome) -> tuple:
        import checks
        from reference import derive

        d = out.data
        want = self.sizes(case)
        if d["rc"] != 0 or d["levels"] != want:
            return [f"convergence exit {d['rc']}, levels {d['levels']}, expected {want}"], None
        problems = checks.check_richardson(d["csv"])
        problems += checks.check_bound(derive(case.family), case.coeffs, d["t"], d["bound"],
                                       d["horizon_node"], d["horizon_time"], d["full"])
        return problems, None


class LongGrid(Workload):
    """`gronwall verify` at m = 2048..8192, one CLI invocation per case.

    The weight-matrix cache is emptied after every case, so each case pays
    the assembly a fresh `gronwall verify` process pays.
    """

    name = "long_grid"
    tag_by_case = True

    def __init__(self):
        self.timer = BoundTimer()

    def prepare(self, seed: int, workdir: str) -> list:
        rng = np.random.default_rng(seed)
        self.out = os.path.join(workdir, "verify.csv")
        return _write_configs(self.name, families.LONG_GRID, rng, workdir)

    def run(self, case: Case):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--config", case.config, "--out", self.out])
        return rc, err.getvalue()

    def collect(self, case: Case, raw) -> Outcome:
        rc, err = raw
        kernels._weight_matrix.cache_clear()
        (_, bound_s, _), = self.timer.take()
        with open(self.out, "rb") as fh:
            blob = fh.read()
        verdict = err.split(" ", 1)[0]
        return Outcome(bound_s, (rc, verdict, hashlib.sha256(blob).hexdigest()),
                       {"rc": rc, "verdict": verdict, "csv": blob})

    def check(self, case: Case, out: Outcome) -> tuple:
        import checks
        from reference import derive

        d = out.data
        if d["rc"] != 0 or d["verdict"] != "PASS":
            return [f"verify exit {d['rc']} verdict {d['verdict']!r}"], None
        rows = np.loadtxt(io.BytesIO(d["csv"]), delimiter=",", skiprows=1, ndmin=2)
        t = np.linspace(0.0, case.family.beta, case.m + 1)
        if rows.shape[0] != case.m + 1 or not np.array_equal(rows[:, 0], t):
            return [f"CSV has {rows.shape[0]} rows, not the {case.m + 1} grid nodes"], None
        ref = derive(case.family)
        problems = checks.check_bound(ref, case.coeffs, t, rows[:, 1], case.m, t[-1], True)
        problems += checks.check_extremal(ref, case.coeffs, t, rows[:, 2], case.m)
        return problems, None


WORKLOADS = {w.name: w for w in (Suite, Iterated, Refine, LongGrid)}
