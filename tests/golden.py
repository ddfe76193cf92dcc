"""The golden corpus of ``bound``, ``verify``, ``horizon`` and ``convergence``.

``tests/data/golden/<name>.cfg`` is a scenario config and
``<name>.golden`` the exit code, stdout, stderr and CSV bytes of each
command on it, run in process through ``cli.main`` with ``--out``.
``tests/test_golden.py`` compares them byte for byte.

Run ``python tests/golden.py`` from the repository root to rewrite every
config and golden file.  The configs are bench's refine and iterated
families at seeds 1 and 2 (``bench/families.py``, drawn as
``bench/workloads.py`` draws them), the CI smoke configs and the
reproducers in ``CONFIGS`` below.  A regeneration is a reviewed diff:
CHANGES.md says which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "golden")
ROOT = os.path.dirname(HERE)

COMMANDS = (
    ("bound",),
    ("verify",),
    ("horizon",),
    ("convergence", "--levels", "3"),
)

SEEDS = (1, 2)

CONFIGS = {
    # The CI console-script step's three configs.
    "ci_thm32": (
        "[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1\nb_expr = 1\n"
        "k_expr = 0.5*exp(-(t-s))\n[grid]\nm = 16\n"
    ),
    "ci_thm33": (
        "[problem]\ntheorem = thm33\np = 0.5\nalpha = 0\nbeta = 1\na_expr = 1 + t\n"
        "b_expr = 1\nk_expr = 0.5*exp(-(t-s))\nh_expr = 0.25\n[grid]\nm = 16\n"
    ),
    "ci_thm33_dense": (
        "[problem]\ntheorem = thm33\np = 0.5\nalpha = 0\nbeta = 1\na_expr = 1 + t\n"
        "b_expr = 1\nk_expr = 0.5*(t-s)^1.5\nh_expr = 0.25*(t-r)\n[grid]\nm = 16\n"
    ),
    # verify refuses it: Picard converges on node 0 alone below a later horizon.
    "thm32_refused": (
        "[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1\nb_expr = 1\n"
        "k_expr = 0.5*exp(-(t-s))\n[grid]\nm = 256\n"
    ),
    # The bound overflows past node 0: the horizon is node 0.
    "thm32_node0": (
        "[problem]\ntheorem = thm32\np = 0.999\nalpha = 0.5\nbeta = 2.5\na = 1\n"
        "b_expr = 3e8\nk_expr = 0.5\n[grid]\nm = 8\n"
    ),
    # The bound overflows partway: horizon kind overflow.
    "thm32_overflow": (
        "[problem]\ntheorem = thm32\np = 0.9\nalpha = 0.5\nbeta = 2.5\na = 1\n"
        "b_expr = 1e31*exp(t)\nk_expr = 0.5\n[grid]\nm = 8\n"
    ),
    "bykov_overflow": (
        "[problem]\ntheorem = bykov\nalpha = 0.5\nbeta = 5.5\na = 0\nb_expr = 1\n"
        "h_expr = exp(t+2)\n[grid]\nm = 64\n"
    ),
    # The one run of the running-sum dense map C @ w and of nan_from = 1:
    # a t-free h, so verify refuses Picard's node 0 below a later horizon.
    "thm32_dense_running_sum": (
        "[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1\nb_expr = 1\n"
        "k_expr = 0.5\nh_expr = 0.5*(s - r)^1.5\n[grid]\nm = 64\n"
    ),
    # The oracle's dense NaN spread gives verify a NaN verdict.
    "thm24_nan_verdict": (
        "[problem]\ntheorem = thm24\np = 2\nalpha = 0\nbeta = 1\na_expr = 0.5*(1 + t)\n"
        "b_expr = 0.4 + 0.2*t\nk1_expr = 0.5 + 0.5*exp(t)*exp(t1)*(1 + t1*t1)\n"
        "[grid]\nm = 64\n"
    ),
    # cor35 kernels whose t-derivative is negative, named in the error.
    "cor35_h_decreasing": (
        "[problem]\ntheorem = cor35\np = 0.5\nalpha = 0\nbeta = 1\na = 1\n"
        "k_expr = 0.5*exp(t-s)\nh_expr = 2 - t\n[grid]\nm = 16\n"
    ),
    "cor35_h_power": (
        "[problem]\ntheorem = cor35\np = 0.5\nalpha = 0\nbeta = 1\na = 1\n"
        "k_expr = 0.5*exp(t-s)\nh_expr = 1 - t*(s - r)^1.5\n[grid]\nm = 16\n"
    ),
    # thm23's multiplier sigma, the one family no other config reaches.
    "thm23": (
        "[problem]\ntheorem = thm23\np = 2\nalpha = 0\nbeta = 1\na = 0.5\n"
        "b_expr = 0.3 + 0.2*t\nsigma_expr = 1 + 0.5*t\nk_expr = 0.4*exp(-(t-s))\n"
        "[grid]\nm = 32\n"
    ),
    # thm24 with a constant datum; the iterated configs give it a(t).
    "thm24_const_a": (
        "[problem]\ntheorem = thm24\np = 2\nalpha = 0\nbeta = 1\na = 0.3\nb_expr = 1\n"
        "k1_expr = 0.5*(1 + t*s)\nk2_expr = 0.25\n[grid]\nm = 32\n"
    ),
}


def _section(label: str, text: str | None) -> str:
    if text is None:
        return f"--- {label} (none)\n"
    return f"--- {label} ({len(text.encode())} bytes)\n{text}\n"


def render(cfg_path: str, out_path: str) -> str:
    """Every command of ``COMMANDS`` on ``cfg_path`` as one text: per
    command its exit code, stdout, stderr and the CSV it wrote to
    ``out_path`` (each stream with its byte count, so the text is exact)."""
    from gronwall import cli

    blocks = []
    for command in COMMANDS:
        if os.path.exists(out_path):
            os.remove(out_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", cfg_path, "--out", out_path])
        csv = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8", newline="") as fh:
                csv = fh.read()
        blocks.append(
            f"### {' '.join(command)}\nexit {code}\n"
            + _section("stdout", out.getvalue())
            + _section("stderr", err.getvalue())
            + _section("csv", csv)
        )
    return "".join(blocks)


def names() -> list:
    """The corpus's config names, sorted."""
    return sorted(f[:-4] for f in os.listdir(DATA) if f.endswith(".cfg"))


def _bench_configs() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import numpy as np

    import families

    out = {}
    for seed in SEEDS:
        for workload, specs in (
            ("refine", [(fam, families.REFINE_M0) for fam in families.REFINE]),
            ("iterated", families.ITERATED),
        ):
            rng = np.random.default_rng(seed)
            for i, (fam, m) in enumerate(specs):
                out[f"{workload}{i}_seed{seed}"] = fam.config(fam.draw(rng), m)
    return out


def regenerate() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(DATA, exist_ok=True)
    for f in os.listdir(DATA):
        if f.endswith((".cfg", ".golden")):
            os.remove(os.path.join(DATA, f))
    for name, text in {**_bench_configs(), **CONFIGS}.items():
        with open(os.path.join(DATA, f"{name}.cfg"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.csv")
        for name in names():
            text = render(os.path.join(DATA, f"{name}.cfg"), out_path)
            with open(os.path.join(DATA, f"{name}.golden"), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)


if __name__ == "__main__":
    regenerate()
