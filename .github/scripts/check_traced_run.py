"""Check one traced benchmark run, read as JSON from stdin.

    python3 bench/run.py --workload suite --seed 1 --seconds 3 --trace 1 \
        | python3 .github/scripts/check_traced_run.py suite

Prints the run without its metrics and exits 1 unless the run is correct
and its per-layer counts hold the bounds below for its workload.
"""

import json
import sys


def main(workload: str) -> int:
    r = json.loads(sys.stdin.read())
    print({k: v for k, v in r.items() if k != "metrics"})
    ok = r["correct"]
    m = {k: v["value"] for k, v in r["metrics"].items()}
    if workload in ("suite", "iterated"):
        # Every Picard sweep (plus the first iterate) goes through the
        # traced operator, and no dense map or per-operator array is kept.
        calls, sweeps = m["oracle.rhs_apply.calls"], m["oracle.picard.sweeps"]
        dense = m["oracle.rhs_assemble.dense_mb"]
        print({"rhs_apply.calls": calls, "picard.sweeps": sweeps, "dense_mb": dense})
        ok = ok and abs(calls - (sweeps + 1)) <= 1e-9 and dense == 0
    if workload == "suite":
        # The instances of a family share the samples of their kernel shapes
        # and the shapes' terms on the all-ones weight: a case samples
        # nothing past the two 257-point factors of each template, once per
        # run, and runs no kernel term through _simplex_term.  A case builds
        # its kernels from trees, so it parses nothing.
        points = m["expr.evaluate.points"]
        parse_ms = m["expr.parse.self_ms"]
        terms = m["kernels.simplex_term.calls"]
        print({"evaluate.points": points, "parse.self_ms": parse_ms, "simplex_term.calls": terms})
        bound = 4 * 257 / r["attempted"]
        ok = ok and points <= bound + 1e-9 and parse_ms == 0 and terms == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
