"""Run one benchmark workload in this process and print one JSON line.

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload suite --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` next to this directory.  Set-up
(inputs built, one warm-up case run) is repeated ``SETUP_REPEATS`` times,
half before the timed loop and half after it, and the imports are timed
as many times: once in this process, the other times in fresh
interpreters, one before the loop and the rest after it.  ``setup_s`` is
the median import time plus the median set-up, so that one slow moment
of the host does not set it.  The timed loop runs whole rounds, each case
of the workload once in an order drawn from the seed, for ``--seconds``
give or take half a round.  Afterwards
every distinct case's outputs are checked against the sympy references,
and every repeat of a case must reproduce its first outputs exactly.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span wrappers of ``tracing.py`` before set-up and prints the per-layer
metrics instead, writing the spans to ``bench/out/``.  The last line of
standard output is the result; progress and problems go to standard error.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 4
# What this process imports before its first set-up, timed by a fresh
# interpreter; the arguments are the directories to put on sys.path.
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import numpy, gronwall, tracing, workloads; print(time.perf_counter() - t0)")

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p95": "ms",
    "bound_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# (layer, quantity) pairs reported by the traced run.  Quantities are per
# case of the timed loop, except ``setup_ms``: self time within one set-up.
LAYERS = (
    ("expr.parse", "self_ms"),
    ("expr.evaluate", "calls"),
    ("expr.evaluate", "points"),
    ("expr.evaluate", "self_ms"),
    ("grid.sample", "self_ms"),
    ("grid.cumulative_trapezoid", "self_ms"),
    ("kernels.compute_B", "self_ms"),
    ("kernels.apply_R", "self_ms"),
    ("kernels.apply_Q", "self_ms"),
    ("kernels.simplex_term", "calls"),
    ("kernels.simplex_term", "self_ms"),
    ("bounds.compute_bound", "self_ms"),
    ("bounds.detect_horizon", "self_ms"),
    ("oracle.rhs_assemble", "self_ms"),
    ("oracle.rhs_assemble", "dense_mb"),
    ("oracle.rhs_apply", "calls"),
    ("oracle.rhs_apply", "self_ms"),
    ("oracle.picard", "sweeps"),
    ("oracle.picard", "self_ms"),
    ("oracle.verify_dominance", "self_ms"),
    ("cli.load_config", "self_ms"),
    ("cli.build_instance", "self_ms"),
    ("cli.command", "self_ms"),
    ("expr.parse", "setup_ms"),
    ("grid.sample", "setup_ms"),
    ("cli.load_config", "setup_ms"),
)
# Per-grid-size breakdowns (suffix .m<size>): refine's levels, long_grid's sizes.
REFINE_SIZED = (
    ("expr.evaluate", "calls"),
    ("expr.evaluate", "points"),
    ("expr.evaluate", "self_ms"),
    ("kernels.compute_B", "self_ms"),
    ("kernels.simplex_term", "self_ms"),
    ("bounds.compute_bound", "self_ms"),
)
LONG_SIZED = (
    ("bounds.compute_bound", "self_ms"),
    ("oracle.rhs_assemble", "self_ms"),
    ("oracle.rhs_assemble", "dense_mb"),
    ("oracle.rhs_apply", "self_ms"),
    ("oracle.picard", "sweeps"),
    ("oracle.verify_dominance", "self_ms"),
    ("cli.command", "self_ms"),
)
UNITS = {"self_ms": "ms", "setup_ms": "ms", "calls": "count", "points": "count",
         "sweeps": "count", "dense_mb": "MB"}


def sized_layers() -> list:
    """(layer, quantity, m) of every per-size metric."""
    import families

    refine = [families.REFINE_M0 * 2**i for i in range(families.REFINE_LEVELS)]
    long_grid = sorted({m for _, m in families.LONG_GRID})
    return [(lay, q, m) for m in refine for lay, q in REFINE_SIZED] + [
        (lay, q, m) for m in long_grid for lay, q in LONG_SIZED
    ]


def per_layer_names() -> list:
    return [f"{lay}.{q}" for lay, q in LAYERS] + [f"{lay}.{q}.m{m}" for lay, q, m in sized_layers()]


def _quantity(t: dict, sel, quantity: str) -> float:
    if quantity in ("self_ms", "setup_ms"):
        return float(t["self_ns"][sel].sum()) / 1e6
    if quantity == "calls":
        return float(sel.sum())
    if quantity == "dense_mb":
        return float(t["count"][sel].sum()) / 2**20
    return float(t["count"][sel].sum())


def layer_metrics(tracer, n_cases: int, cases_at_m: dict) -> dict:
    t = tracer.table()
    names = tracer.names
    span_name = [names[i] for i in t["name"]]
    by_name = {}
    for i, name in enumerate(span_name):
        by_name.setdefault(name, []).append(i)
    loop = t["phase"] == 0
    metrics = {}
    for lay, q in LAYERS:
        mask = np.zeros(len(span_name), dtype=bool)
        mask[by_name.get(lay, [])] = True
        if q == "setup_ms":
            per = [_quantity(t, mask & (t["phase"] == k), q) for k in range(1, SETUP_REPEATS + 1)]
            value = statistics.median(per)
        else:
            value = _quantity(t, mask & loop, q) / n_cases
        metrics[f"{lay}.{q}"] = {"value": value, "unit": UNITS[q]}
    for lay, q, m in sized_layers():
        mask = np.zeros(len(span_name), dtype=bool)
        mask[by_name.get(lay, [])] = True
        n = cases_at_m.get(m, 0)
        value = _quantity(t, mask & loop & (t["tag"] == m), q) / n if n else 0.0
        metrics[f"{lay}.{q}.m{m}"] = {"value": value, "unit": UNITS[q]}
    return metrics


def import_seconds() -> float:
    """Import time of a fresh interpreter loading what this process loads."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"), HERE],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import gronwall  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()  # before the workload wraps cli.compute_bound
    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    import_s = time.perf_counter() - _T0

    first: dict = {}
    problems: list = []

    def record(case, out) -> None:
        seen = first.setdefault(case.key, (case, out))[1]
        if seen.fingerprint != out.fingerprint:
            problems.append(f"{case.key}: outputs differ between repeats")

    setups = []

    def set_up(k: int) -> list:
        tracer.phase, tracer.tag = k, 0
        t0 = time.perf_counter()
        cases = wl.prepare(args.seed, workdir)
        out = wl.collect(cases[0], wl.run(cases[0]))
        setups.append(time.perf_counter() - t0)
        record(cases[0], out)
        tracer.phase = 0
        return cases

    half = SETUP_REPEATS // 2
    for k in range(1, half + 1):
        cases = set_up(k)
    imports = [import_s, import_seconds()]

    order = np.random.default_rng([args.seed, 1])
    case_s, bound_s, ran = [], [], []
    t_loop = time.perf_counter()
    for rounds in range(1, sys.maxsize):
        for i in order.permutation(len(cases)):
            case = cases[i]
            tracer.tag = case.m if wl.tag_by_case else 0
            t0 = time.perf_counter()
            try:
                raw = wl.run(case)
            except Exception as err:  # a crash is a wrong output: report it, go on
                problems.append(f"{case.key}: {type(err).__name__}: {err}")
                continue
            case_s.append(time.perf_counter() - t0)
            out = wl.collect(case, raw)
            bound_s.append(out.bound_s)
            ran.append(case.key)
            record(case, out)
        # Stop when one more round would end past --seconds by more than
        # half a round, so a run lasts --seconds give or take half a round.
        elapsed = time.perf_counter() - t_loop
        if elapsed + 0.5 * elapsed / rounds >= args.seconds:
            break
    loop_s = time.perf_counter() - t_loop
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for k in range(half + 1, SETUP_REPEATS + 1):
        set_up(k)
    imports += [import_seconds() for _ in range(SETUP_REPEATS - len(imports))]
    tracer.uninstall()

    faults = {}
    for key, (case, out) in first.items():
        found, fault = wl.check(case, out)
        problems += [f"{key}: {p}" for p in found]
        if fault is not None:
            faults[key] = fault
    failed = sum(1 for key in ran if key in faults)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(ran)} cases in {loop_s:.1f} s, {failed} failed "
          f"({len(faults)} distinct: {sorted(set(faults.values()))}), "
          f"{len(problems)} problems", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        cases_at_m = {}
        for key in ran:
            for m in wl.sizes(first[key][0]):
                cases_at_m[m] = cases_at_m.get(m, 0) + 1
        metrics = layer_metrics(tracer, len(ran), cases_at_m)
        tracer.write(os.path.join(OUT, f"spans-{tag}.csv.gz"))
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "cases_per_s": len(ran) / loop_s,
            "case_ms_p50": 1e3 * statistics.median(case_s),
            "case_ms_p95": 1e3 * float(np.percentile(case_s, 95, method="inverted_cdf")),
            "bound_ms_p50": 1e3 * statistics.median(bound_s),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result = {"correct": not problems, "attempted": len(ran), "failed": failed, "metrics": metrics}
    summary = dict(result, case_ms_p50_this_run=1e3 * statistics.median(case_s),
                   loop_s=loop_s, setup_repeats_s=setups, imports_s=imports)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
