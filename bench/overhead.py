"""Tracing overhead: traced against untraced case times in one process.

    python3 bench/overhead.py

For each workload it builds the inputs once, then runs whole rounds with
the span wrappers installed and removed in turn, and prints the median
case time of each mode and their ratio.  Alternating rounds within one
process keeps the host's drift, which moves separate runs by tens of
per cent, out of the comparison.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = {"suite": 6, "iterated": 10, "refine": 4, "long_grid": 8}


def measure(name: str, rounds: int, workdir: str) -> str:
    tracer = tracing.Tracer()
    tracer.install()  # first, so the workload's bound timer wraps traced code
    wl = workloads.WORKLOADS[name]()
    cases = wl.prepare(1, workdir)
    wl.collect(cases[0], wl.run(cases[0]))
    times = {True: [], False: []}
    for r in range(rounds):
        traced = r % 2 == 0
        if not traced:
            tracer.uninstall()
        for case in cases:
            tracer.tag = case.m if wl.tag_by_case else 0
            t0 = time.perf_counter()
            raw = wl.run(case)
            times[traced].append(time.perf_counter() - t0)
            wl.collect(case, raw)
        if not traced:
            tracer.install()
    tracer.uninstall()
    on, off = (1e3 * statistics.median(times[k]) for k in (True, False))
    return (f"{name:<10} traced {on:10.3f} ms  untraced {off:10.3f} ms  "
            f"ratio {on / off:.3f}  ({len(times[True])} + {len(times[False])} cases)")


def main() -> int:
    workdir = os.path.join(HERE, "out", "overhead")
    os.makedirs(workdir, exist_ok=True)
    for name, rounds in ROUNDS.items():
        print(measure(name, rounds, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
