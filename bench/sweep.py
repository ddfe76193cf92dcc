"""Traced scaling sweep over m for the reference scenarios of the roadmap.

    python3 bench/sweep.py

For each scenario and grid size it times one ``compute_bound`` and one
Picard run with the tracer installed, and prints the wall times, the
Picard sweep count, the ``expr.evaluate`` call count and the three layers
with the most self time.
Scenarios:

* thm34, iterated kernels of arity 1-3 whose t-derivatives depend on t,
  m = 32, 64;
* thm24 with an arity-4 kernel added, bound only, m = 16, 24;
* thm32 with t-dependent h (``refine``'s thm32 family), m = 256, 1024.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import families  # noqa: E402
import tracing  # noqa: E402
from families import Family  # noqa: E402
from gronwall import bounds, cli, oracle  # noqa: E402

# The roadmap's thm34 baseline: kernels whose t-derivatives depend on t
# too, all on the finite-difference path, so every simplex term loops over t.
_THM34_T = Family(
    "thm34", 0.5, a="c4", b="(1 + c0*t)^2",
    iterated=("c1*(1 + t*t1)", "c2*t^2*(t1 + t2)", "c3*t^2*(t1 + t2)*t3"),
    ranges=families.ITERATED[0][0].ranges,
)
_THM24_ARITY4 = Family(
    "thm24", 2.0, a="0.5*c4*(1 + c0*t)^2*(1 + c5*t)", b="(1 + c0*t)^2",
    iterated=(*families.ITERATED[1][0].iterated, "c3*t*t4*(1 + t1*t2*t3)"),
    ranges=families.ITERATED[1][0].ranges,
)
SCENARIOS = (
    ("thm34 arity 1-3", _THM34_T, (32, 64), True),
    ("thm24 arity 1-4", _THM24_ARITY4, (16, 24), False),
    ("thm32 t-dependent h", next(f for f in families.REFINE if f.theorem == "thm32"),
     (256, 1024), True),
)


def measure(fam: Family, m: int, picard: bool, workdir: str) -> str:
    coeffs = fam.draw(np.random.default_rng(0))
    path = os.path.join(workdir, "sweep.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fam.config(coeffs, m))
    inst = cli.load_config(path).build_instance()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        bounds.compute_bound(inst)
        bound_s = time.perf_counter() - t0
        n_bound = len(tracer.cols["name"])
        picard_s, sweeps = float("nan"), 0
        if picard:
            t0 = time.perf_counter()
            sweeps = oracle.picard_extremal(inst).iterations
            picard_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    t = tracer.table()
    names = np.array(tracer.names)[t["name"]]
    evals = int((names == "expr.evaluate").sum())
    eval_bound = int((names[:n_bound] == "expr.evaluate").sum())
    totals = {}
    for name, ns in zip(names, t["self_ns"]):
        totals[name] = totals.get(name, 0) + int(ns)
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:3]
    layers = ", ".join(f"{k} {v / 1e6:.0f} ms" for k, v in top)
    return (f"m={m:<5} bound {bound_s:7.3f} s  picard {picard_s:7.3f} s  sweeps {sweeps:3d}  "
            f"evaluate {eval_bound}/{evals - eval_bound} (bound/picard)  top self: {layers}")


def main() -> int:
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    for label, fam, sizes, picard in SCENARIOS:
        print(label)
        for m in sizes:
            print("  " + measure(fam, m, picard, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
