"""The benchmark's checks pass on real output and catch corrupted output.

Run with ``python3 -m pytest bench/tests``.  Every expected value is
computed here, from closed forms or from a fresh ``gronwall`` run; nothing
is compared against stored output.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import checks
import families
import run
import tracing
from families import Family
from gronwall import bounds, cli, oracle
from reference import derive

BERNOULLI = Family("thm32", 0.5, a="c4", b="c0 + c1*t")
BLOW_UP = Family("thm22", 3.0, a="c4 + c5*t", b="c0 + c1*t", pair=("c2*exp(-(t-s))", "c3"))
COEFFS = (0.4, 0.3, 0.5, 0.2, 0.8, 0.5)


def _solve(fam, coeffs, m, tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(fam.config(coeffs, m))
    inst = cli.load_config(str(path)).build_instance()
    br = bounds.compute_bound(inst)
    out = oracle.picard_extremal(inst)
    rep = oracle.verify_dominance(out.u, br, out.conv_node)
    return inst.grid.nodes, br, out, rep


def _bound_problems(fam, c, t, br, values=None):
    vals = br.bound.values if values is None else values
    return checks.check_bound(derive(fam), c, t, vals, br.horizon_node, br.horizon_time, br.full)


def test_reference_matches_hand_closed_form():
    # u <= a + int (c0 + c1 s) u^p: bound [a^q + q (c0 t + c1 t^2 / 2)]^(1/q)
    t = np.linspace(0.0, 1.0, 11)
    c0, c1, a = COEFFS[0], COEFFS[1], COEFFS[4]
    want = (a**0.5 + 0.5 * (c0 * t + c1 * t**2 / 2)) ** 2
    np.testing.assert_allclose(derive(BERNOULLI).bound(t, COEFFS), want, rtol=1e-14)


def test_reference_horizon_is_the_bracket_root():
    ref = derive(BLOW_UP)
    h = ref.horizon(COEFFS)
    assert h is not None and 0.0 < h < 1.0
    assert ref.bracket(np.array([h]), COEFFS)[0] == pytest.approx(1.0, abs=1e-12)


def _fail_data(br, out, rep) -> dict:
    return {"u": out.u.values, "bound": br.bound.values, "compare_node": rep.compare_node,
            "diverged_node": out.diverged_node}


@pytest.mark.parametrize("fam,m", [(BERNOULLI, 64), (BLOW_UP, 256), families.ITERATED[1]])
def test_real_output_passes(fam, m, tmp_path):
    c = COEFFS if fam.theorem != "thm24" else fam.draw(np.random.default_rng(0))
    t, br, out, rep = _solve(fam, c, m, tmp_path)
    assert _bound_problems(fam, c, t, br) == []
    assert checks.check_extremal(derive(fam), c, t, out.u.values, rep.compare_node) == []
    if fam is BERNOULLI:
        # Without kernels the thm32 bound is the exact solution, so the
        # extremal's O(dt^2) quadrature error trips the 1e-9 dominance gate:
        # the gate fault, here far above the suite's noise at m = 256.
        assert not rep.passed and rep.max_violation < 1e-4
    else:
        assert rep.passed


@pytest.mark.parametrize("theorem,seed,fault", [("thm32", 98, "gate"), ("thm32", 45, "gate"),
                                                ("cor35", 47, "causality")])
def test_suite_faults_are_classified(theorem, seed, fault):
    # Real FAILs of the default `gronwall suite`: seed 98 has the largest
    # gate violation of the 34 thm32 gate cases, seed 45 the smallest.
    inst = oracle.random_instance(theorem, seed, 256)
    br = bounds.compute_bound(inst)
    out = oracle.picard_extremal(inst)
    rep = oracle.verify_dominance(out.u, br, out.conv_node)
    assert not rep.passed
    c, p = families.suite_draw(theorem, seed)
    ref = derive(families.suite_family(theorem, p))
    ext = checks.check_extremal(ref, c, inst.grid.nodes, out.u.values, rep.compare_node)
    assert checks.classify_failure(theorem, _fail_data(br, out, rep), ext) == fault


@pytest.mark.parametrize("fam,m", [(BERNOULLI, 256), (BLOW_UP, 256), families.ITERATED[1]])
def test_scaled_bound_is_caught(fam, m, tmp_path):
    c = COEFFS if fam.theorem != "thm24" else fam.draw(np.random.default_rng(0))
    t, br, _, _ = _solve(fam, c, m, tmp_path)
    assert _bound_problems(fam, c, t, br, 0.999 * br.bound.values)


@pytest.mark.parametrize("index", [0, 1, 4])
@pytest.mark.parametrize("scale", [0.0, 0.5])
def test_weakened_top_kernel_is_caught(index, scale, tmp_path):
    # The highest-arity kernel adds an error that starts at zero and grows
    # with t, unlike a scaled bound; it must show on the coarse iterated grids.
    fam, m = families.ITERATED[index]
    c = fam.draw(np.random.default_rng(0))
    name = f"k{len(fam.iterated)}"
    weak = dataclasses.replace(
        fam,
        iterated=(*fam.iterated[:-1], f"{scale!r}*{fam.iterated[-1]}"),
        dt={k: f"{scale!r}*{v}" if k == name else v for k, v in fam.dt.items()},
    )
    t, br, _, _ = _solve(weak, c, m, tmp_path)
    assert _bound_problems(fam, c, t, br)


def test_shifted_horizon_is_caught(tmp_path):
    t, br, _, _ = _solve(BLOW_UP, COEFFS, 256, tmp_path)
    assert not br.full
    dt = t[1] - t[0]
    problems = checks.check_bound(derive(BLOW_UP), COEFFS, t, br.bound.values,
                                  br.horizon_node, br.horizon_time - 2 * dt, False)
    assert any("horizon" in p for p in problems)


def test_nudged_extremal_is_caught(tmp_path):
    # Without kernels the thm32 bound is the exact solution, so the discrete
    # extremal sits within O(dt^2) of it and a 1e-3 rise must show.
    t, br, out, rep = _solve(BERNOULLI, COEFFS, 256, tmp_path)
    u = out.u.values.copy()
    u[128:] *= 1.001
    problems = checks.check_extremal(derive(BERNOULLI), COEFFS, t, u, rep.compare_node)
    assert any("above reference bound" in p for p in problems)


def test_decreasing_or_nonfinite_extremal_is_caught(tmp_path):
    t, _, out, rep = _solve(BERNOULLI, COEFFS, 64, tmp_path)
    ref = derive(BERNOULLI)
    u = out.u.values.copy()
    u[10] = u[9] * 0.99
    assert any("decreases" in p for p in checks.check_extremal(ref, COEFFS, t, u, rep.compare_node))
    u[10] = np.nan
    assert any("non-finite" in p for p in checks.check_extremal(ref, COEFFS, t, u, rep.compare_node))


def test_richardson_ratio(tmp_path):
    fam = families.REFINE[1]
    c = fam.draw(np.random.default_rng(0))
    cfg, out = tmp_path / "r.cfg", tmp_path / "r.csv"
    cfg.write_text(fam.config(c, 32))
    assert cli.main(["convergence", "--config", str(cfg), "--levels", "3", "--out", str(out)]) == 0
    assert checks.check_richardson(out.read_text()) == []
    assert checks.check_richardson("m,max_diff,ratio\n32,1e-4,3.0\n64,3e-5,\n")
    assert checks.check_richardson("m,max_diff,ratio\n32,1e-4,\n64,3e-5,\n")


def _failed(u, bound=None, compare_node=4, diverged_node=None):
    return {"u": np.asarray(u, dtype=float), "bound": np.ones(5) if bound is None else bound,
            "compare_node": compare_node, "diverged_node": diverged_node}


def test_failure_classification():
    nan = _failed(np.full(5, np.nan), diverged_node=0)
    nonfinite = ["extremal non-finite at node 0"]
    assert checks.classify_failure("cor35", nan, nonfinite) == "causality"
    assert checks.classify_failure("thm22", nan, nonfinite) is None
    noise = _failed(np.ones(5) + 6e-9)
    assert checks.classify_failure("thm32", noise, []) == "gate"
    # The same FAIL on another family, or by more than trapezoid noise, is
    # a wrong output, not the gate fault.
    assert checks.classify_failure("thm22", noise, []) is None
    assert checks.classify_failure("thm33", noise, []) is None
    assert checks.classify_failure("thm32", _failed(np.ones(5) + 1e-6), []) is None
    assert checks.classify_failure("thm32", noise, ["extremal above"]) is None


def test_tracer_self_time_and_uninstall(tmp_path):
    original = bounds.compute_bound
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.compute_bound is not original and bounds.compute_bound is not original
        _solve(BERNOULLI, COEFFS, 32, tmp_path)
    finally:
        tracer.uninstall()
    assert bounds.compute_bound is original and cli.compute_bound is original
    t = tracer.table()
    assert (t["self_ns"] >= 0).all()
    roots = t["parent"] < 0
    assert t["self_ns"].sum() == (t["end"] - t["start"])[roots].sum()
    names = {tracer.names[i] for i in t["name"]}
    assert {"cli.load_config", "bounds.compute_bound", "oracle.rhs_assemble", "oracle.picard"} <= names


def test_benchmark_json_names_the_metrics_run_py_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == ["suite", "refine"]
