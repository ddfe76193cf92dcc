import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gronwall import cli, kernels, oracle
from gronwall.bounds import THEOREMS, compute_bound
from gronwall.cli import ConfigError, load_config
from gronwall.expr import FUNCTIONS, separate
from gronwall.grid import Grid
from gronwall.oracle import picard_extremal, verify_dominance

RICCATI_CONFIG = """\
# Riccati certification scenario
[problem]
theorem = thm32
p = 2
alpha = 0
beta = 0.9
a = 1
b_expr = 1

[grid]
m = 1024

[oracle]
tol = 1e-10
max_iter = 10000
"""


# The thm33 config of the CI's console-script step.
CI_THM33_CONFIG = (
    "[problem]\ntheorem = thm33\np = 0.5\nalpha = 0\nbeta = 1\na_expr = 1 + t\n"
    "b_expr = 1\nk_expr = 0.5*exp(-(t-s))\nh_expr = 0.25\n[grid]\nm = 16\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_fresh(argv):
    """``python -m gronwall.cli`` with ``argv`` in a fresh interpreter."""
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_dir, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "gronwall.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write(tmp_path, "ok.cfg", RICCATI_CONFIG))
        inst = cfg.build_instance()
        assert inst.theorem == "thm32"
        assert inst.grid.m == 1024
        assert cfg.tol == 1e-10

    def test_both_datums_conflict(self, tmp_path):
        text = RICCATI_CONFIG.replace("a = 1", "a = 1\na_expr = 1+t")
        with pytest.raises(ConfigError, match="not both"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_expression_syntax_error_with_offset(self, tmp_path):
        text = RICCATI_CONFIG.replace("b_expr = 1", "k_expr = exp(-(t-s)")
        with pytest.raises(ConfigError, match="offset"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_unknown_key(self, tmp_path):
        text = RICCATI_CONFIG.replace("a = 1", "a = 1\nflavor = vanilla")
        with pytest.raises(ConfigError, match="unknown key 'flavor'"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, "bad.cfg", "[magic]\nx = 1\n"))

    def test_unknown_theorem(self, tmp_path):
        text = RICCATI_CONFIG.replace("theorem = thm32", "theorem = thm9")
        with pytest.raises(ConfigError, match="unknown theorem"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_kernel_keys_must_match_form(self, tmp_path):
        text = RICCATI_CONFIG.replace("b_expr = 1", "b_expr = 1\nk1_expr = 1")
        with pytest.raises(ConfigError, match="k1_expr does not apply"):
            load_config(write(tmp_path, "bad.cfg", text))
        text = RICCATI_CONFIG.replace("theorem = thm32", "theorem = thm24")
        with pytest.raises(ConfigError, match="requires k1_expr"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_contiguous_iterated_kernels(self, tmp_path):
        text = (
            "[problem]\ntheorem = thm34\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
            "b_expr = 1\nk1_expr = 1\nk3_expr = 1\n[grid]\nm = 64\n"
        )
        with pytest.raises(ConfigError, match="missing k2_expr"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_dt_without_body(self, tmp_path):
        text = RICCATI_CONFIG.replace("b_expr = 1", "b_expr = 1\nk_dt_expr = 0")
        with pytest.raises(ConfigError, match="k_dt_expr given without"):
            load_config(write(tmp_path, "bad.cfg", text))

    @pytest.mark.parametrize("theorem, kernels, orphan", [
        ("thm32", "", "k1_dt_expr = banana("),
        ("thm34", "k1_expr = 1\n", "k3_dt_expr = nonsense("),
        ("thm24", "k1_expr = 1\n", "k2_dt_expr = 0"),
    ], ids=["thm32-k1", "thm34-k3", "thm24-k2"])
    def test_iterated_dt_without_body(self, tmp_path, capsys, theorem, kernels, orphan):
        text = (
            f"[problem]\ntheorem = {theorem}\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
            f"b_expr = 1\n{kernels}{orphan}\n[grid]\nm = 16\n"
        )
        key = orphan.split()[0]
        line = text.splitlines().index(orphan) + 1
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "bad.cfg", text))
        assert str(err.value) == f"line {line}: {key} given without {key.replace('_dt', '')}"
        assert cli.main(["horizon", "--config", str(tmp_path / "bad.cfg")]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_duplicate_key(self, tmp_path):
        text = RICCATI_CONFIG.replace("a = 1", "a = 1\na = 2")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, "bad.cfg", text))

    def test_key_before_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            load_config(write(tmp_path, "bad.cfg", "m = 2\n[grid]\n"))

    def test_sigma_only_thm23(self, tmp_path):
        text = RICCATI_CONFIG.replace("b_expr = 1", "b_expr = 1\nsigma_expr = 1")
        with pytest.raises(ConfigError, match="sigma_expr applies only"):
            load_config(write(tmp_path, "bad.cfg", text))


class TestCommands:
    def test_bound_csv_riccati(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", RICCATI_CONFIG)
        out = tmp_path / "bound.csv"
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["t", "bound"]
        assert len(rows) == 1025  # full interval
        t, b = min(
            ((float(r[0]), float(r[1])) for r in rows),
            key=lambda tb: abs(tb[0] - 0.5),
        )
        assert b == pytest.approx(2.0, abs=1e-3)

    def test_verify_passes_riccati(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.cfg", RICCATI_CONFIG)
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        summary = capsys.readouterr().err
        assert summary.startswith("PASS")
        assert "cut=" in summary
        header, rows = read_rows(out)
        assert header == ["t", "bound", "extremal", "margin"]
        for r in rows:
            assert float(r[3]) == pytest.approx(float(r[1]) - float(r[2]), abs=1e-12)

    def test_verify_fail_exit_code(self, tmp_path, capsys, monkeypatch):
        # a bound halved below the extremal: the extremal genuinely escapes it
        def halved(inst):
            br = compute_bound(inst)
            bound = dataclasses.replace(br.bound, values=0.5 * br.bound.values)
            return dataclasses.replace(br, bound=bound)

        monkeypatch.setattr(oracle, "compute_bound", halved)
        text = (
            "[problem]\ntheorem = cor35\np = 2\nalpha = 0\nbeta = 0.5\na = 1\n"
            "k_expr = exp(t-s)\n[grid]\nm = 256\n"
        )
        cfg = write(tmp_path, "fail.cfg", text)
        assert cli.main(["verify", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("FAIL")

    def test_horizon_output(self, tmp_path, capsys):
        text = RICCATI_CONFIG.replace("beta = 0.9", "beta = 2")
        cfg = write(tmp_path, "r.cfg", text)
        assert cli.main(["horizon", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "horizon_time,horizon_node,kind"
        time, node, kind = out[1].split(",")
        assert float(time) == pytest.approx(1.0, abs=2 * (2 / 1024))
        assert kind == "q_positivity"

    def test_convergence_ratios(self, tmp_path, capsys):
        text = (
            "[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
            "b_expr = exp(t)\n[grid]\nm = 128\n"
        )
        cfg = write(tmp_path, "c.cfg", text)
        assert cli.main(["convergence", "--config", cfg, "--levels", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,max_diff,ratio"
        first = lines[1].split(",")
        assert first[0] == "128"
        assert 3.0 <= float(first[2]) <= 5.0

    def test_suite_runs_and_is_deterministic(self, tmp_path):
        text = "[problem]\ntheorem = thm33\n[run]\nseed = 7\ncases = 5\n"
        cfg = write(tmp_path, "s.cfg", text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rc1 = cli.main(["suite", "--config", cfg, "--out", str(out1)])
        rc2 = cli.main(["suite", "--config", cfg, "--out", str(out2)])
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_rows(out1)
        assert header == [
            "seed", "p", "pass", "max_violation", "horizon_time", "picard_status",
            "compare_node",
        ]
        assert len(rows) == 5
        assert [r[0] for r in rows] == [str(7 + i) for i in range(5)]

    def test_suite_seed_flag_overrides(self, tmp_path):
        text = "[problem]\ntheorem = thm33\n[run]\nseed = 7\ncases = 3\n"
        cfg = write(tmp_path, "s.cfg", text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["suite", "--config", cfg, "--out", str(out1), "--seed", "9"])
        cli.main(["suite", "--config", cfg, "--out", str(out2), "--seed", "9"])
        assert out1.read_bytes() == out2.read_bytes()
        _, rows = read_rows(out1)
        assert rows[0][0] == "9"

    def test_suite_shows_a_pass_over_node_zero_alone(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", "[problem]\ntheorem = thm32\n")
        out = tmp_path / "a.csv"
        cli.main(["suite", "--config", cfg, "--out", str(out), "--seed", "46", "--cases", "1"])
        _, rows = read_rows(out)
        assert rows[0][2] == "PASS"
        assert rows[0][-2:] == ["diverged", "0"]

    def test_verify_refuses_the_diverged_row_that_suite_keeps(self, tmp_path, capsys):
        # thm32 seed 46 written out as a config: the suite keeps its DIVERGED
        # comparison over node 0 alone (test_suite_shows_a_pass_over_node_zero_alone),
        # and verify refuses the same one.
        inst = oracle.random_instance("thm32", 46)
        assert inst.p == 3.0
        c = np.random.default_rng(46).uniform(0.0, 1.0, 6).tolist()
        text = (
            f"[problem]\ntheorem = thm32\np = 3\nalpha = 0\nbeta = 1\na = {c[4]!r}\n"
            f"b_expr = {c[0]!r} + {c[1]!r}*t\nk_expr = {c[2]!r}*exp(-(t-s))\n"
            f"h_expr = {c[3]!r}\n[grid]\nm = 256\n"
        )
        out = tmp_path / "v.csv"
        argv = ["verify", "--config", write(tmp_path, "v.cfg", text), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        horizon = compute_bound(inst).horizon_node
        assert err.startswith("error: Picard converged on node 0 alone (picard=diverged ")
        assert err.endswith(
            f"while the horizon lies at node {horizon}: the comparison would certify nothing\n"
        )
        assert not out.exists()

    def test_verify_and_suite_call_check_dominance_once_per_case(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return oracle.check_dominance(*args)

        monkeypatch.setattr(cli, "check_dominance", counted)
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        out = str(tmp_path / "a.csv")
        assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
        assert len(calls) == 1 and calls[0][3] == oracle.VERIFY_RTOL
        assert cli.main(["suite", "--config", cfg, "--out", out, "--cases", "3"]) == 0
        assert len(calls) == 4
        assert [args[0].theorem for args in calls[1:]] == ["thm33"] * 3

    def test_verify_prints_a_zero_margin_unsigned(self, tmp_path, capsys):
        # The bound equals the extremal at some node of this config.
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("PASS max_violation=0 min_margin=0 compare_node=16 ")

    def test_suite_refuses_a_max_iter_pass_over_node_zero(self, tmp_path, capsys):
        # One sweep leaves node 0 alone converged below the horizon at node
        # 256; suite printed PASS for it, as verify no longer does.
        text = "[problem]\ntheorem = thm32\n[oracle]\nmax_iter = 1\n"
        cfg = write(tmp_path, "s.cfg", text)
        out = tmp_path / "a.csv"
        argv = ["suite", "--config", cfg, "--out", str(out), "--seed", "42", "--cases", "20"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: thm32 seed 42: Picard converged on node 0 alone ")
        assert "picard=max_iter iterations=1" in err and "horizon lies at node 256" in err
        assert not out.exists()

    def test_suite_rejects_non_family_theorem(self, tmp_path):
        text = "[problem]\ntheorem = thm24\nk1_expr = 1\n"
        cfg = write(tmp_path, "s.cfg", text)
        assert cli.main(["suite", "--config", cfg]) == 2

    def test_suite_honours_seed_zero(self, tmp_path):
        text = "[problem]\ntheorem = thm33\n[run]\nseed = 0\ncases = 2\n"
        cfg = write(tmp_path, "s.cfg", text)
        out = tmp_path / "a.csv"
        cli.main(["suite", "--config", cfg, "--out", str(out)])
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["0", "1"]

    @pytest.mark.parametrize("cases_line, flag", [
        ("cases = 0\n", []),
        ("cases = -3\n", []),
        ("", ["--cases", "0"]),
    ], ids=["config-zero", "config-negative", "flag-zero"])
    def test_suite_rejects_no_cases(self, tmp_path, capsys, cases_line, flag):
        text = "[problem]\ntheorem = thm33\n[run]\n" + cases_line
        cfg = write(tmp_path, "s.cfg", text)
        out = tmp_path / "a.csv"
        assert cli.main(["suite", "--config", cfg, "--out", str(out)] + flag) == 2
        assert "cases must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed_line, flag", [
        ("seed = -5\n", []),
        ("", ["--seed", "-1"]),
    ], ids=["config", "flag"])
    def test_suite_rejects_negative_seed(self, tmp_path, capsys, seed_line, flag):
        text = "[problem]\ntheorem = thm33\n[run]\ncases = 2\n" + seed_line
        cfg = write(tmp_path, "s.cfg", text)
        out = tmp_path / "a.csv"
        assert cli.main(["suite", "--config", cfg, "--out", str(out)] + flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be nonnegative") and err.count("\n") == 1
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", RICCATI_CONFIG.replace("m = 1024", "m = 8"))
        proc = run_fresh(["bound", "--config", cfg])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,bound"
        assert len(lines) == 10


CUT_CONFIG = (
    "[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
    "b_expr = exp(t)\nk_expr = exp(-(t-s))\n[grid]\nm = 32\n"
)
FULL_CONFIG = CUT_CONFIG.replace("p = 2", "p = 0.5")
# thm32 with q = 1 - p small: the bound overflows to inf partway, at
# another node on each level, and the horizon ends at its last finite node.
OVERFLOW_CONFIG = (
    "[problem]\ntheorem = thm32\np = 0.9\nalpha = 0.5\nbeta = 2.5\na = 1\n"
    "b_expr = 1e31*exp(t)\nk_expr = 0.5\n[grid]\nm = 8\n"
)


class TestCsvBytes:
    """``bound`` and ``verify`` print each value with ``format(x, ".17g")``,
    the text that reads back as the same double."""

    def test_bound_and_verify_rows(self, tmp_path, capsys):
        # A t-free k keeps Picard causal, so it converges up to the cut.
        text = CUT_CONFIG.replace("exp(t)", "1").replace("exp(-(t-s))", "0.5*exp(s)")
        cfg = write(tmp_path, "c.cfg", text)
        config = load_config(cfg)
        inst = config.build_instance()
        br = compute_bound(inst)
        outcome = picard_extremal(inst, tol=config.tol, max_iter=config.max_iter)
        n = verify_dominance(outcome.u, br, outcome.conv_node).compare_node
        T, b, u = inst.grid.nodes, br.bound.values, outcome.u.values
        assert 0 < n <= br.horizon_node < inst.grid.m  # a cut bound

        def row(*xs):
            return ",".join(format(float(x), ".17g") for x in xs) + "\n"

        assert cli.main(["bound", "--config", cfg]) == 0
        want = "t,bound\n" + "".join(row(T[j], b[j]) for j in range(br.horizon_node + 1))
        assert capsys.readouterr().out == want
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        want = "t,bound,extremal,margin\n" + "".join(
            row(T[j], b[j], u[j], b[j] - u[j]) for j in range(n + 1))
        assert out.read_bytes() == want.encode()

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)
        x = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e300, -1e-300,
                      np.pi, 1.0 / 3.0, np.nan, np.inf, -np.inf])
        y = np.random.default_rng(5).standard_normal(x.size) * 10.0 ** np.arange(x.size)
        want = "a,b\n" + "".join(
            f"{format(float(p), '.17g')},{format(float(q), '.17g')}\n" for p, q in zip(x, y))
        assert cli._csv("a,b", x, y) == want


class TestOutFile:
    """``--out`` rewrites a file in place: exactly the new bytes, the file's
    own mode, and any path that is not a regular file is only written."""

    def test_shorter_output_leaves_no_stale_tail(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        out = tmp_path / "out.csv"
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        longer = out.read_bytes()
        assert cli.main(["horizon", "--config", cfg]) == 0
        want = capsys.readouterr().out.encode()
        assert len(want) < len(longer)
        assert cli.main(["horizon", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == longer

    def test_dev_null(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        assert cli.main(["bound", "--config", cfg, "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_existing_file_keeps_its_mode(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        out = tmp_path / "out.csv"
        out.write_text("x" * 1000)
        out.chmod(0o600)
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.read_text().startswith("t,bound\n0,1\n")

    def test_read_only_file_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            pytest.skip("this user may write a read-only file")
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.read_text() == "old\n"

    def test_directory_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CI_THM33_CONFIG)
        assert cli.main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSharedParser:
    """Every ``main`` call in a process parses with one parser; a call
    prints what the same command prints first in a fresh interpreter."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # argparse wraps help and usage to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def in_process(self, argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_calls_match_a_fresh_interpreter(self, tmp_path, capsys):
        cfg = write(tmp_path, "cut.cfg", CUT_CONFIG)
        runs = [
            (["bound"], 2),
            (["bound", "--config", cfg], 0),
            (["horizon", "--config", cfg], 0),
            (["convergence", "--config", cfg, "--levels", "2"], 0),
        ]
        got = [self.in_process(argv, capsys) for argv, _ in runs]
        for (argv, code), mine in zip(runs, got):
            proc = run_fresh(argv)
            assert proc.returncode == code
            assert mine == (code, proc.stdout, proc.stderr)
        assert "the following arguments are required: --config" in got[0][2]

    def test_help_matches_a_fresh_interpreter(self, capsys):
        proc = run_fresh(["--help"])
        assert proc.returncode == 0
        assert self.in_process(["--help"], capsys) == (0, proc.stdout, proc.stderr)
        assert proc.stdout.startswith("usage: gronwall ")


def reference_convergence_csv(cfg, levels):
    """`convergence`'s CSV, comparing the levels one node at a time."""
    results = [
        compute_bound(dataclasses.replace(cfg, m=cfg.m * 2**i).build_instance())
        for i in range(levels)
    ]
    t_cut = min(r.horizon_time for r in results)
    if any(not r.full for r in results):
        t_cut = cfg.alpha + cli.HORIZON_GUARD * (t_cut - cfg.alpha)
    diffs = []
    for i, (coarse, fine) in enumerate(zip(results, results[1:])):
        T = Grid(cfg.alpha, cfg.beta, cfg.m * 2**i).nodes
        n = min(coarse.horizon_node, fine.horizon_node // 2)
        c, f = coarse.bound.values, fine.bound.values
        diffs.append(max(
            abs(c[j] - f[2 * j])
            for j in range(n + 1)
            if T[j] <= t_cut and math.isfinite(c[j]) and math.isfinite(f[2 * j])
        ))
    lines = ["m,max_diff,ratio"]
    for i, d in enumerate(diffs):
        ratio = format(d / diffs[i + 1], ".17g") if i + 1 < len(diffs) and diffs[i + 1] else ""
        lines.append(f"{cfg.m * 2**i},{format(d, '.17g')},{ratio}")
    return "\n".join(lines) + "\n", results


class TestConvergence:
    @pytest.mark.parametrize(
        "text, full",
        [(CUT_CONFIG, False), (FULL_CONFIG, True), (OVERFLOW_CONFIG, False)],
        ids=["cut", "full", "overflow"],
    )
    def test_matches_the_per_node_reference(self, tmp_path, capsys, text, full):
        cfg = write(tmp_path, "c.cfg", text)
        want, results = reference_convergence_csv(load_config(cfg), 4)
        assert all(r.full for r in results) is full
        assert cli.main(["convergence", "--config", cfg, "--levels", "4"]) == 0
        assert capsys.readouterr().out == want

    def test_no_finite_node_past_node_0_exit_2(self, tmp_path, capsys):
        # The bound is inf at every node past the datum on both levels, so
        # each horizon ends at node 0, t = 0.5.
        text = OVERFLOW_CONFIG.replace("p = 0.9", "p = 0.999").replace("1e31*exp(t)", "3e8")
        cfg = write(tmp_path, "c.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["convergence", "--config", cfg, "--levels", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: no node past node 0 is finite on both the m = 8 and m = 16 "
            "bounds within their horizons (t <= 0.5): nothing to compare\n"
        )

    def test_separates_each_kernel_term_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(body, slots):
            calls.append((body, tuple(slots)))
            return separate(body, slots)

        monkeypatch.setattr(kernels, "separate", counting)
        text = COR35_CONFIG.replace("(t-s)^1.5", "exp(t-s)\nh_expr = t^2*(1 + r)")
        cfg = write(tmp_path, "c.cfg", text.replace("m = 64", "m = 16"))
        assert cli.main(["convergence", "--config", cfg, "--levels", "3"]) == 0
        # k and h, each pinned (R) and differentiated (Q).
        assert len(calls) == len(set(calls)) == 4


COR35_CONFIG = """\
[problem]
theorem = cor35
p = 2
alpha = 0
beta = 1
a = 0.5
k_expr = (t-s)^1.5

[grid]
m = 64
"""


class TestKernelDerivative:
    def test_cor35_power_kernel_matches_closed_form(self, tmp_path):
        # dk/dt = 1.5 (t-s)^0.5 is 0 on the diagonal, so the bound is
        # [a^q + q t^2.5/2.5]^(1/q) with q = 1 - p = -1: 0.625 at t = 1.  The
        # square-root kink of dk/dt on the diagonal makes the trapezoid
        # error O(dt^1.5).
        errors = []
        for m in (64, 128):
            cfg = write(tmp_path, f"c{m}.cfg", COR35_CONFIG.replace("m = 64", f"m = {m}"))
            out = tmp_path / f"bound{m}.csv"
            assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_rows(out)
            assert len(rows) == m + 1 and float(rows[-1][0]) == 1.0
            errors.append(abs(float(rows[-1][1]) - 0.625))
            assert errors[-1] <= 0.25 * (1.0 / m) ** 1.5
        assert 2.4 <= errors[0] / errors[1] <= 3.2

    @pytest.mark.parametrize("dt_line", ["", "k_dt_expr = 0.5/sqrt(t-s)\n"],
                             ids=["derived", "given"])
    def test_infinite_derivative_named_without_warnings(self, tmp_path, capsys, dt_line):
        # d/dt sqrt(t-s) is infinite on the diagonal: a named error, exit 2,
        # and no RuntimeWarning on the way
        text = COR35_CONFIG.replace("k_expr = (t-s)^1.5", "k_expr = sqrt(t-s)\n" + dt_line)
        cfg = write(tmp_path, "sqrt.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bound", "--config", cfg]) == 2
        assert "d/dt of kernel k is non-finite at node 0" in capsys.readouterr().err

    def test_dense_map_meets_an_infinite_power_without_warnings(self, tmp_path, capsys):
        # k4 does not separate, so it is a dense matrix, and the bound applies
        # it to w = b^p = inf: the mat-vec's 0 * inf stays silent, as on a chain.
        text = (
            "[problem]\ntheorem = thm24\np = 2\nalpha = 0\nbeta = 1\na = 1e200\n"
            "b_expr = 1e200\nk1_expr = 1\nk2_expr = 1\nk3_expr = 1\n"
            "k4_expr = (1 + t + t1*t2*t3*t4)^0.5\n[grid]\nm = 8\n"
        )
        cfg = write(tmp_path, "thm24.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bound", "--config", cfg]) == 0
        assert capsys.readouterr().out == "t,bound\n0,9.9999999999999997e+199\n"


class TestExitCodes:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda text: text.replace("a = 1", "a = 1\na_expr = 1+t"),
            lambda text: text.replace("b_expr = 1", "k_expr = exp(-(t-s)"),
            lambda text: text.replace("a = 1", "a = 1\nflavor = vanilla"),
        ],
        ids=["both-datums", "expr-syntax", "unknown-key"],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, mutate):
        cfg = write(tmp_path, "bad.cfg", mutate(RICCATI_CONFIG))
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, argv, message", [
        ("[grid]", "[grid", ["bound"], "line 10: malformed section header"),
        ("b_expr = 1", "b_expr 1", ["bound"], "line 8: expected 'key = value'"),
        ("b_expr = 1", "b_expr =", ["bound"], "line 8: empty value for 'b_expr'"),
        ("p = 2", "p = two", ["bound"], "line 4: p must be a number, got 'two'"),
        ("m = 1024", "m = 1.5", ["bound"], "line 11: m must be an integer, got '1.5'"),
        ("a = 1\n", "a_expr = 1 +\n", ["bound"], "line 7: a_expr: "),
        ("theorem = thm32\n", "", ["bound"], "[problem] theorem is required"),
        ("alpha = 0\n", "", ["bound"], "[problem] alpha is required"),
        ("beta = 0.9\n", "", ["bound"], "[problem] beta is required"),
        ("m = 1024\n", "", ["bound"], "[grid] m is required"),
        ("p = 2\n", "", ["bound"], "[problem] p is required"),
        ("thm32\np = 2\nalpha = 0\nbeta = 0.9\na = 1\nb_expr = 1\n",
         "thm24\np = 2\nalpha = 0\nbeta = 0.9\na = 1\nb_expr = 1\nk_expr = 1\n", ["bound"],
         "line 9: k_expr does not apply to thm24; use k1_expr..kn_expr"),
        ("thm32\np = 2\nalpha = 0\nbeta = 0.9\na = 1\nb_expr = 1\n",
         "thm23\np = 2\nalpha = 0\nbeta = 0.9\na = 1\nb_expr = 1\nh_expr = 1\n", ["bound"],
         "line 9: thm23 has no triple-integral kernel h"),
        ("thm32", "cor35", ["bound"], "line 8: cor35 has no coefficient b(t)"),
        ("m = 1024", "m = 16", ["convergence", "--levels", "1"],
         "convergence needs at least 2 levels"),
        ("max_iter = 10000", "max_iter = 0", ["verify"], "line 15: max_iter must be at least 1"),
    ], ids=["section-header", "no-equals", "empty-value", "not-a-number", "not-an-integer",
            "bad-a-expr", "no-theorem", "no-alpha", "no-beta", "no-m", "no-p", "k-under-thm24",
            "h-under-thm23", "b-under-cor35", "one-level", "max-iter-0"])
    def test_each_config_error_exit_2(self, tmp_path, capsys, old, new, argv, message):
        assert old in RICCATI_CONFIG
        cfg = write(tmp_path, "bad.cfg", RICCATI_CONFIG.replace(old, new))
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("theorem", ["thm24", "thm34"])
    def test_sigma_under_an_iterated_theorem_names_its_takers(self, tmp_path, capsys, theorem):
        # The multiplier is refused as on every theorem without one, not
        # with the iterated kernels offered in its place.
        text = RICCATI_CONFIG.replace(
            "theorem = thm32", f"theorem = {theorem}"
        ).replace("b_expr = 1\n", "b_expr = 1\nk1_expr = 1\nsigma_expr = 1\n")
        cfg = write(tmp_path, "bad.cfg", text)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: line 10: sigma_expr applies only to thm23, not {theorem}\n"
        )

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["bound", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_hypothesis_violation_exit_2(self, tmp_path, capsys):
        text = RICCATI_CONFIG.replace("a = 1", "a = -1")
        cfg = write(tmp_path, "bad.cfg", text)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert "a > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem, p, a_expr, message", [
        ("thm33", 0.5, "1 - t", "a(t) must be positive; node 16 has 0.0"),
        ("thm22", 2, "1 - t", "a(t) must be nondecreasing; it drops by 0.0625 "
         "between nodes 0 and 1"),
        ("thm22", 2, "t - 0.5", "a(t) must be nonnegative; node 0 has -0.5"),
    ], ids=["positive", "nondecreasing", "nonnegative"])
    def test_hypothesis_error_prints_plain_floats(self, tmp_path, capsys, theorem, p, a_expr,
                                                  message):
        text = CI_THM33_CONFIG.replace("thm33\np = 0.5", f"{theorem}\np = {p}")
        text = text.replace("1 + t", a_expr)
        cfg = write(tmp_path, "bad.cfg", text)
        assert cli.main(["bound", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        # node 0 escapes on the first sweep: no node converges
        ("[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 1e13\n"
         "b_expr = 1\n[grid]\nm = 16\n", "nothing to compare"),
        # one sweep converges node 0 alone while the bound holds to beta
        ("[problem]\ntheorem = thm32\np = 2\nalpha = 0\nbeta = 1\na = 0.5\n"
         "b_expr = 1\nk_expr = 0.5*exp(-(t-s))\n[grid]\nm = 256\n"
         "[oracle]\nmax_iter = 1\n", "picard=max_iter iterations=1"),
        # the bound overflows past node 0, so its horizon is node 0 itself
        (OVERFLOW_CONFIG.replace("p = 0.9", "p = 0.999").replace("1e31*exp(t)", "3e8"),
         "the bound holds on node 0 alone (horizon kind overflow): the comparison "
         "would certify nothing"),
    ], ids=["escaped-at-node-0", "max-iter-1", "horizon-at-node-0"])
    def test_verify_without_comparison_exit_2(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path, "o.cfg", text)
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        # nan passed `tol <= 0` and crashed Picard; inf certified the
        # first iterate alone.
        text = RICCATI_CONFIG.replace("tol = 1e-10", f"tol = {tol}")
        cfg = write(tmp_path, "t.cfg", text.replace("m = 1024", "m = 64"))
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 14: tol must be positive and finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, given, value, line", [
        ("a", "1", "inf", 7), ("a", "1", "nan", 7), ("p", "2", "inf", 4), ("p", "2", "nan", 4),
        ("alpha", "0", "inf", 5), ("alpha", "0", "nan", 5),
        ("beta", "0.9", "inf", 6), ("beta", "0.9", "nan", 6),
    ])
    def test_datum_and_exponent_must_be_finite(self, tmp_path, capsys, key, given, value, line):
        # a = inf passed `a > 0` and p = inf passed `p >= 0`; the bracket
        # then failed at node 0 with a message naming no key.
        text = RICCATI_CONFIG.replace(f"\n{key} = {given}\n", f"\n{key} = {value}\n")
        cfg = write(tmp_path, "n.cfg", text.replace("m = 1024", "m = 32"))
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {line}: {key} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_interval_is_named_before_a_given_derivative(self, tmp_path, capsys):
        # The k_dt_expr check samples [alpha, beta]: an infinite beta once sent
        # its lattice through inf and NaN, with two warnings, and ended in
        # "grid endpoints must be finite".
        text = RICCATI_CONFIG.replace("beta = 0.9", "beta = inf").replace(
            "b_expr = 1\n", "b_expr = 1\nk_expr = 0.5\nk_dt_expr = 0\n")
        cfg = write(tmp_path, "n.cfg", text.replace("m = 1024", "m = 32"))
        assert cli.main(["bound", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: line 6: beta must be finite, got inf\n"

    def test_nonfinite_sample_exit_2(self, tmp_path):
        text = RICCATI_CONFIG.replace("b_expr = 1", "b_expr = 1/(0.5-t)")
        cfg = write(tmp_path, "bad.cfg", text)
        assert cli.main(["bound", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["bound", "convergence"])
    @pytest.mark.parametrize("m", [10**18, 10**19])
    def test_oversized_grid_exit_2(self, tmp_path, capsys, m, command):
        # numpy refuses both node arrays before touching memory: 10^18 + 1
        # nodes with a MemoryError, 10^19 + 1 (past its largest array
        # size) with a ValueError.
        cfg = write(tmp_path, "big.cfg", RICCATI_CONFIG.replace("m = 1024", f"m = {m}"))
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot allocate the {m + 1} nodes of m = {m}\n"
        assert not out.exists()

    @pytest.mark.parametrize("m,levels,finest", [
        (1000, 60, "1000 * 2^59"),
        (2**20, 4, "1048576 * 2^3"),
        (1, 10**6, "1 * 2^999999"),
        (2**22 + 1, 60, "4194305 * 2^59"),
    ])
    def test_convergence_levels_past_the_cap_exit_2(self, tmp_path, capsys, monkeypatch,
                                                    m, levels, finest):
        # Refused before any level is built.  A config m past the cap itself
        # (the last case) only has its nodes allocated, and is still refused.
        def build(cfg):
            raise AssertionError(f"level built at m = {cfg.m}")

        monkeypatch.setattr(cli.ScenarioConfig, "build_instance", build)
        cfg = write(tmp_path, "c.cfg", RICCATI_CONFIG.replace("m = 1024", f"m = {m}"))
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        rc = cli.main(["convergence", "--config", cfg, "--levels", str(levels),
                       "--out", str(out)])
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: --levels {levels} takes the finest level to m = {finest}; "
                       f"at most m = {cli.MAX_CONVERGENCE_M} is allowed\n")
        assert not out.exists()

    def test_convergence_levels_up_to_the_cap_run(self, tmp_path, monkeypatch):
        # m * 2^(levels-1) = 2^22 exactly is allowed through to the first level.
        built = []

        def build(cfg):
            built.append(cfg.m)
            raise ConfigError("stop")

        monkeypatch.setattr(cli.ScenarioConfig, "build_instance", build)
        cfg = write(tmp_path, "c.cfg", RICCATI_CONFIG.replace("m = 1024", f"m = {2**20}"))
        assert cli.main(["convergence", "--config", cfg, "--levels", "3"]) == 2
        assert built == [2**20]


# Kernels that decrease in t: the bounds that integrate dk/dt through Q
# (cor35, thm34, thm24) do not hold for them, and the extremal exceeds
# what the closed form would print.
# Each config's decreasing kernel, named as the config names it, and the config.
DECREASING_CONFIGS = {
    "cor35": ("k", "theorem = cor35\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
                   "k_expr = exp(-(t-s))\n"),
    "cor35-beta-0.5": ("k", "theorem = cor35\np = 2\nalpha = 0\nbeta = 0.5\na = 1\n"
                            "k_expr = exp(-(t-s))\n"),
    "cor35-h": ("h", "theorem = cor35\np = 0.5\nalpha = 0\nbeta = 1\na = 1\n"
                     "k_expr = 0.5*exp(t-s)\nh_expr = 2 - t\n"),
    "thm34": ("k1", "theorem = thm34\np = 2\nalpha = 0\nbeta = 1\na = 1\nb_expr = 1\n"
                    "k1_expr = exp(-(t-s))\n"),
    "thm24": ("k1", "theorem = thm24\np = 2\nalpha = 0\nbeta = 1\na = 0.5\nb_expr = 1\n"
                    "k1_expr = 2*exp(-3*(t-s))\n"),
}


class TestDerivativeHypothesis:
    @pytest.mark.parametrize("command", ["bound", "verify"])
    @pytest.mark.parametrize("name", sorted(DECREASING_CONFIGS))
    def test_decreasing_kernel_exit_2(self, tmp_path, capsys, name, command):
        kernel, problem = DECREASING_CONFIGS[name]
        text = "[problem]\n" + problem + "[grid]\nm = 256\n"
        cfg = write(tmp_path, "dec.cfg", text)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: d/dt of kernel {kernel} is negative (")
        assert err.count("\n") == 1
        assert err.rstrip().endswith("at node 0")
        assert not out.exists()

    def test_wrong_given_derivative_is_a_config_error(self, tmp_path, capsys):
        text = COR35_CONFIG.replace("k_expr = (t-s)^1.5", "k_expr = t*s\nk_dt_expr = 0")
        cfg = write(tmp_path, "dt.cfg", text)
        with pytest.raises(ConfigError, match=r"^line 8: k_dt_expr disagrees") as err:
            load_config(cfg)
        assert err.value.line == 8
        assert cli.main(["bound", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 8: k_dt_expr") and err.count("\n") == 1

    def test_given_derivative_keys_change_no_output(self, tmp_path):
        # the refine workload's cor35 config, coefficients drawn once
        body = (
            "[problem]\ntheorem = cor35\np = 3.0\nalpha = 0\nbeta = 1.0\n"
            "a = 0.6163206707716656\n"
            "k_expr = (0.3069389542290862)*exp(t-s)\n{k_dt}"
            "h_expr = (0.2593087236640461)*t^2*(1 + r)\n{h_dt}"
            "\n[grid]\nm = 256\n"
        )
        given = body.format(
            k_dt="k_dt_expr = (0.3069389542290862)*exp(t-s)\n",
            h_dt="h_dt_expr = 2*(0.2593087236640461)*t*(1 + r)\n",
        )
        csv = []
        for name, text in (("given", given), ("derived", body.format(k_dt="", h_dt=""))):
            out = tmp_path / f"{name}.csv"
            assert cli.main(["bound", "--config", write(tmp_path, name, text),
                             "--out", str(out)]) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1] and len(csv[0].splitlines()) > 2

    @pytest.mark.parametrize("dt_line", ["k_dt_expr = exp(t-s\n", "k_dt_expr = t2\n"],
                             ids=["syntax", "variable"])
    def test_malformed_given_derivative_names_its_key(self, tmp_path, dt_line):
        text = COR35_CONFIG.replace("k_expr = (t-s)^1.5", "k_expr = exp(t-s)\n" + dt_line)
        with pytest.raises(ConfigError, match="^line 8: k_dt_expr: "):
            load_config(write(tmp_path, "dt.cfg", text))


# --- the error contract over random configs ---

FUZZ_CONSTANTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 201.0, 5e-324, 1e-300, 1e200, 8e307, 1.5e308]),
    st.floats(0.0, 1e200),
    st.floats(0.0, 1.7e308),
)


def fuzz_expressions(variables):
    """Source text of random expression trees over ``variables``."""
    leaves = st.one_of(st.sampled_from(variables), FUZZ_CONSTANTS.map(repr))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), inner).map(lambda x: f"{x[0]}({x[1]})"),
        inner.map(lambda x: f"-{x}"),
    ), max_leaves=5)


@st.composite
def fuzz_runs(draw):
    """``(config text, command arguments)`` for any theorem and command."""
    theorem = draw(st.sampled_from(THEOREMS))
    alpha = draw(st.sampled_from([0.0, 0.5, -1.0]))
    beta = alpha + draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    lines = ["[problem]", f"theorem = {theorem}", f"alpha = {alpha!r}", f"beta = {beta!r}"]
    if theorem != "bykov" or draw(st.booleans()):
        p = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0, 2.0, 3.0]), st.floats(-1, 4)))
        lines.append(f"p = {p!r}")
    if theorem in ("thm22", "thm33") or theorem == "thm24" and draw(st.booleans()):
        lines.append(f"a_expr = {draw(fuzz_expressions(['t']))}")
    else:
        lines.append(f"a = {draw(st.one_of(FUZZ_CONSTANTS, st.just(1e300)))!r}")
    if theorem != "cor35":
        lines.append(f"b_expr = {draw(fuzz_expressions(['t']))}")
    if theorem == "thm23":
        lines.append(f"sigma_expr = {draw(fuzz_expressions(['t']))}")
    if theorem in ("thm24", "thm34"):
        for i in range(1, draw(st.integers(1, 4)) + 1):
            names = ["t", *(f"t{j}" for j in range(1, i + 1))]
            lines.append(f"k{i}_expr = {draw(fuzz_expressions(names))}")
    else:
        if draw(st.booleans()):
            lines.append(f"k_expr = {draw(fuzz_expressions(['t', 's']))}")
        if theorem != "thm23" and draw(st.booleans()):
            lines.append(f"h_expr = {draw(fuzz_expressions(['t', 's', 'r']))}")
    lines += ["[grid]", f"m = {draw(st.integers(1, 32))}"]
    command = draw(st.sampled_from([
        ["bound"], ["verify"], ["horizon"], ["convergence", "--levels", "2"],
        ["suite", "--cases", "1"],
    ]))
    return "\n".join(lines) + "\n", command


class TestErrorContract:
    """Any config, any command: exit 0, 1 or 2, at most one line on stderr,
    no nan or inf printed by a run that does not fail, and no warning."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(fuzz_runs())
    def test_random_configs(self, run):
        text, command = run
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                rc = cli.main([command[0], "--config", path, *command[1:]])
        assert rc in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        if rc != 2:
            printed = (out.getvalue() + err.getvalue()).lower()
            assert "nan" not in printed and "inf" not in printed, printed

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_config_that_is_not_utf8_exit_2(self, tmp_path, capsys, newline):
        text = CI_THM33_CONFIG.replace("b_expr = 1\n", "b_expr = 1 # caf\u00e9\n")
        path = tmp_path / "latin1.cfg"
        path.write_bytes(text.replace("\n", newline).encode("latin-1"))
        assert cli.main(["bound", "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: line 7: config is not UTF-8 text (byte 0xe9)\n"
        )

    @pytest.mark.parametrize("theorem, kernel", [
        ("cor35", "k_expr"), ("thm34", "b_expr = 1\nk1_expr"),
    ], ids=["cor35", "thm34"])
    def test_r_plus_q_overflow_warns_nothing(self, tmp_path, capsys, theorem, kernel):
        # R and Q are each finite, and their sum overflows to inf.
        text = (f"[problem]\ntheorem = {theorem}\np = 2\nalpha = 0\nbeta = 1\na = 1\n"
                f"{kernel} = 8e307*(1+t)\n[grid]\nm = 8\n")
        cfg = write(tmp_path, "rq.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["bound", "--config", cfg]) == 0
        assert capsys.readouterr() == ("t,bound\n0,1\n", "")

    def test_dense_rows_overflow_warns_nothing(self, tmp_path, capsys):
        # h is past SAFE_LOG2, so it has no chain, and its trapezoid weights
        # overflow where the dense rows are scaled by dt.
        text = ("[problem]\ntheorem = cor35\np = 0.5\nalpha = 0\nbeta = 5\na = 3\n"
                "h_expr = (7346575305896089.0 + 1.5e+308)\n[grid]\nm = 4\n")
        cfg = write(tmp_path, "rows.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
