"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py --workload suite --runs 10 [--first-seed 1]

Runs the benchmark command of ``BENCHMARK.json`` ``--runs`` times, one
process after another, with seeds ``first-seed, first-seed + 1, ...``.
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) as
a share of the median, the largest deviation from the median as a share
of it, and the metric's bound.  It also prints the failed share of every
run, which must be identical.  Raw results go to
``bench/out/steady-<workload>.json``.  ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(spec: dict, workload: str, results: list) -> None:
    print(f"\n{workload}: {len(results)} runs, wall "
          f"{min(r['wall_s'] for r in results):.1f}-{max(r['wall_s'] for r in results):.1f} s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'maxdev':>9}{'bound':>8}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        maxdev = max(abs(v - med) for v in vals) / med
        print(f"{m['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{maxdev:>9.3f}{m['bound']:>8}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    share_set = {f / a for f, a in shares}
    print(f"failed/attempted: {shares} -> {'identical share' if len(share_set) == 1 else 'SHARES DIFFER'}")
    print(f"correct in every run: {all(r['correct'] for r in results)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {results[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        summarize(spec, workload, results)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
