import math
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from gronwall import expr
from gronwall.expr import (
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVariableError,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
    derivative,
    evaluate,
    free_variables,
    parse,
    rename_variables,
    separate,
    to_source,
)
from gronwall.kernels import Kernel


def ev(source, allowed=("t", "s", "r"), **bindings):
    return evaluate(parse(source, allowed), bindings)


def test_parse_eval_polynomial():
    assert ev("t^2 + 3*s", t=2.0, s=1.0) == 7.0


def test_parse_eval_exp_zero():
    assert ev("exp(-(t-s))", t=1.0, s=1.0) == 1.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t +", {"t"})
    assert err.value.offset == 3


def test_eval_division():
    assert ev("1/(1-t)", t=2.0) == -1.0


def test_eval_sqrt():
    assert ev("sqrt(t)", t=4.0) == 2.0


def test_pow_right_associative():
    assert ev("2^t^2", t=2.0) == 16.0


def test_unary_minus_binds_below_pow():
    assert ev("-t^2", t=3.0) == -9.0
    node = parse("-t^2", {"t"})
    assert node == Neg(BinOp("^", Var("t"), Num(2.0)))


def test_free_variables():
    assert free_variables(parse("3.5", set())) == frozenset()
    assert free_variables(parse("t*s - exp(r)", {"t", "s", "r"})) == {"t", "s", "r"}
    assert free_variables(parse("t + t^2", {"t"})) == {"t"}


def test_unknown_variable_named():
    with pytest.raises(UnknownVariableError, match="'x'"):
        parse("t + x", {"t"})


def test_unknown_function():
    with pytest.raises(UnknownFunctionError, match="'tan'"):
        parse("tan(t)", {"t"})


def test_unbound_variable_on_eval():
    with pytest.raises(UnboundVariableError, match="'s'"):
        ev("t + s", t=1.0)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2t", {"t"})


def test_comments_and_whitespace():
    assert ev("1 + t  # trailing note", t=1.0) == 2.0
    assert ev(" t\n+ 1 ", t=2.0) == 3.0


def test_number_forms():
    assert ev("1e-3") == 1e-3
    assert ev(".5") == 0.5
    assert ev("2.5E+1") == 25.0


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ", {"t"})


def test_nonfinite_results_returned():
    assert ev("1/t", t=0.0) == math.inf
    assert math.isnan(ev("log(t)", t=-1.0))
    assert ev("log(t)", t=0.0) == -math.inf
    assert ev("exp(t)", t=1000.0) == math.inf
    assert math.isnan(ev("sqrt(t)", t=-1.0))


@pytest.mark.parametrize(
    "source,expected",
    [
        # every operator pair, with operands that distinguish the grouping
        ("2 + 3 + 4", 9.0),
        ("2 - 3 - 4", -5.0),           # (2-3)-4, not 2-(3-4)
        ("2 + 3 - 4", 1.0),
        ("2 - 3 + 4", 3.0),
        ("2 + 3 * 4", 14.0),
        ("2 * 3 + 4", 10.0),
        ("2 - 3 * 4", -10.0),
        ("2 * 3 - 4", 2.0),
        ("2 + 4 / 2", 4.0),
        ("4 / 2 + 2", 4.0),
        ("12 / 3 / 2", 2.0),           # (12/3)/2
        ("2 * 3 * 4", 24.0),
        ("12 / 3 * 2", 8.0),           # (12/3)*2
        ("2 * 12 / 3", 8.0),
        ("2 + 3 ^ 2", 11.0),
        ("3 ^ 2 + 2", 11.0),
        ("2 - 3 ^ 2", -7.0),
        ("2 * 3 ^ 2", 18.0),
        ("3 ^ 2 * 2", 18.0),
        ("8 / 2 ^ 2", 2.0),
        ("2 ^ 2 / 8", 0.5),
        ("2 ^ 3 ^ 2", 512.0),          # right-assoc: 2^(3^2)
        ("-3 ^ 2", -9.0),
        ("(-3) ^ 2", 9.0),
        ("2 ^ -1", 0.5),
        ("--3", 3.0),
    ],
)
def test_precedence_table(source, expected):
    assert ev(source) == expected


def _random_ast(rng, depth):
    choices = ["num", "var"]
    if depth > 0:
        choices += ["neg", "bin", "call"]
    kind = rng.choice(choices)
    if kind == "num":
        return Num(round(rng.uniform(0, 10), 3))
    if kind == "var":
        return Var(rng.choice(["t", "s", "r"]))
    if kind == "neg":
        return Neg(_random_ast(rng, depth - 1))
    if kind == "call":
        return Call(rng.choice(sorted(expr.FUNCTIONS)), _random_ast(rng, depth - 1))
    op = rng.choice("+-*/^")
    return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_round_trip_1000_random_asts():
    rng = random.Random(20240811)
    for _ in range(1000):
        node = _random_ast(rng, depth=4)
        text = to_source(node)
        reparsed = parse(text, {"t", "s", "r"})
        assert reparsed == node
        assert to_source(reparsed) == text


def test_eval_is_pure():
    node = parse("exp(t) * (1 + s^2) / (3 - r)", {"t", "s", "r"})
    ctx = {"t": 0.3, "s": 1.7, "r": 0.9}
    first = evaluate(node, ctx)
    assert all(evaluate(node, ctx) == first for _ in range(5))


def test_derivative_leaves_out_zero_terms():
    vars_ = {"t", "s"}
    assert derivative(parse("exp(s) * s + 3", vars_), "t") == Num(0.0)
    assert derivative(parse("t * s", vars_), "t") == Var("s")
    assert derivative(parse("sign(t - s)", vars_), "t") == Num(0.0)
    assert derivative(parse("exp(-(t - s))", vars_), "t") == parse("-exp(-(t - s))", vars_)
    assert derivative(parse("(t - s)^1.5", vars_), "t") == parse("1.5*(t - s)^0.5", vars_)
    assert derivative(parse("abs(t)", vars_), "t") == parse("sign(t)", vars_)


def _to_sympy(e, sp, syms):
    if isinstance(e, Num):
        return sp.Float(e.value)
    if isinstance(e, Var):
        return syms[e.name]
    if isinstance(e, Neg):
        return -_to_sympy(e.operand, sp, syms)
    if isinstance(e, Call):
        funcs = {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos,
                 "sqrt": sp.sqrt, "abs": sp.Abs, "sign": sp.sign}
        return funcs[e.func](_to_sympy(e.arg, sp, syms))
    left, right = _to_sympy(e.left, sp, syms), _to_sympy(e.right, sp, syms)
    return {"+": left + right, "-": left - right, "*": left * right,
            "/": left / right, "^": left**right}[e.op]


def test_derivative_matches_sympy_on_1000_random_asts():
    sp = pytest.importorskip("sympy")
    syms = {name: sp.Symbol(name, real=True) for name in ("t", "s", "r")}
    rng = random.Random(20240811)
    compared = 0
    for _ in range(1000):
        node = _random_ast(rng, depth=4)
        ours = derivative(node, "t")
        assert parse(to_source(ours), {"t", "s", "r"}) == ours
        ref = sp.diff(_to_sympy(node, sp, syms), syms["t"])
        for _ in range(3):
            point = {name: rng.uniform(-2.0, 3.0) for name in syms}
            got = evaluate(ours, point)
            want = ref.evalf(30, subs={syms[n]: v for n, v in point.items()})
            if not (want.is_real and want.is_finite and math.isfinite(got)):
                continue
            compared += 1
            assert got == pytest.approx(float(want), rel=1e-9, abs=1e-12), (
                to_source(node), point)
    assert compared > 2500


VARS = ("t", "s", "r")


def test_separate_round_trip_on_random_asts():
    """Wherever every factor is finite, the split sums back to the tree.

    The tolerance is relative to the terms' magnitudes, since an expanded
    product can cancel.
    """
    rng = random.Random(20240811)
    split = compared = 0
    for _ in range(2000):
        node = _random_ast(rng, depth=4)
        terms = separate(node, VARS)
        if terms is None:
            continue
        split += len(free_variables(node)) > 1
        for _ in range(3):
            point = {name: rng.uniform(-2.0, 3.0) for name in VARS}
            parts = [c * math.prod(evaluate(f, point) for f in fs.values()) for c, fs in terms]
            if not all(map(math.isfinite, parts)):
                continue
            compared += 1
            want = evaluate(node, point)
            scale = abs(want) + sum(map(abs, parts))
            assert abs(sum(parts) - want) <= 1e-12 * scale, (to_source(node), point)
    assert split > 100 and compared > 4000


@pytest.mark.parametrize(
    "source,rank",
    [
        ("0.3*exp(-(t-s))", 1),
        ("t*(1+s*r)", 2),
        ("t^2*(1+r)", 1),  # 1+r reads one variable: one factor
        ("(t+s)^2", 3),
        ("(t*s)^1.5 / (2*r)", 1),
        ("2*exp(1 + t - 3*s + r^2)", 1),
    ],
)
def test_separate_rank(source, rank):
    node = parse(source, VARS)
    terms = separate(node, VARS)
    assert len(terms) == rank
    for c, fs in terms:
        assert set(fs) == set(VARS)
        for name, f in fs.items():
            assert free_variables(f) <= {name}
    point = {"t": 0.7, "s": 0.4, "r": 1.3}
    got = sum(c * math.prod(evaluate(f, point) for f in fs.values()) for c, fs in terms)
    assert got == pytest.approx(evaluate(node, point), rel=1e-14)


def test_separate_exp_kernel_factors():
    ((c, fs),) = separate(parse("0.3*exp(-(t-s))", VARS), ("t", "s"))
    assert c == 0.3
    assert fs == {"t": parse("exp(-t)", VARS), "s": parse("exp(s)", VARS)}


@pytest.mark.parametrize("source, coef", [
    ("exp(t - s + 1)", float(np.exp(1.0))),
    # 1 + t reads one variable, so it stays inside the t factor exp(1 + t).
    ("exp(1 + t - s)", 1.0),
])
def test_separate_exp_constant_term_is_the_coefficient(source, coef):
    ((c, fs),) = separate(parse(source, VARS), ("t", "s"))
    assert c == coef
    assert fs["s"] == parse("exp(-s)", VARS)


def test_separate_exp_of_an_overflowing_constant_gives_up():
    assert separate(parse("exp(t - s + 800)", VARS), ("t", "s")) is None


@pytest.mark.parametrize(
    "source",
    ["(t-s)^1.5", "sqrt(t-s)", "sin(t*s)", "exp(t*s)", "t^s", "1/(t+s)", "(t+s)^5",
     "(t+s+r+1)^4"],
)
def test_separate_gives_up(source):
    assert separate(parse(source, VARS), VARS) is None


def test_separate_one_variable_subtree_is_one_factor():
    node = parse("sin(t)^2 + log(t)", VARS)
    assert separate(node, VARS) == [(1.0, {"t": node, "s": Num(1.0), "r": Num(1.0)})]
    assert separate(parse("2^3", VARS), VARS) == [(8.0, dict.fromkeys(VARS, Num(1.0)))]


def test_separate_names_the_variables():
    with pytest.raises(ValueError, match="'r'"):
        separate(parse("t*r", VARS), ("t", "s"))


def _walk_free(e):
    """Free variables by a fresh recursive walk."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return _walk_free(e.operand)
    if isinstance(e, Call):
        return _walk_free(e.arg)
    return _walk_free(e.left) | _walk_free(e.right)


def _rebuild(e):
    """A structurally identical copy made of fresh nodes."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Neg):
        return Neg(_rebuild(e.operand))
    if isinstance(e, Call):
        return Call(e.func, _rebuild(e.arg))
    return BinOp(e.op, _rebuild(e.left), _rebuild(e.right))


def _subtrees(e):
    yield e
    for child in (getattr(e, name, None) for name in ("operand", "arg", "left", "right")):
        if child is not None:
            yield from _subtrees(child)


def test_node_memos_never_go_stale():
    """Every node's free variables and hash, cached when it is made, agree
    with a fresh walk and with a rebuilt copy: on random trees, their
    renamings, t-derivatives and separated factors, and after pickling."""
    rng = random.Random(20240811)
    hashes = set()
    checked = 0
    for _ in range(500):
        node = _random_ast(rng, depth=4)
        trees = [node, rename_variables(node, {"s": "t1", "r": "t2"}), derivative(node, "t")]
        trees += [f for _, fs in separate(node, VARS) or [] for f in fs.values()]
        trees.append(pickle.loads(pickle.dumps(node)))
        for tree in trees:
            for sub in _subtrees(tree):
                copy = _rebuild(sub)
                assert free_variables(sub) == _walk_free(sub)
                assert sub == copy and hash(sub) == hash(copy)
                assert {copy: 1}[sub] == 1
                hashes.add(hash(sub))
                checked += 1
    assert checked > 5000 and len(hashes) > 1000


def test_kernel_aliases_give_the_canonical_body():
    rng = random.Random(7)
    for _ in range(300):
        node = _random_ast(rng, depth=4)
        canonical = rename_variables(node, {"s": "t1", "r": "t2"})
        aliased = Kernel(2, to_source(node)).body
        assert aliased == Kernel(2, to_source(canonical)).body
        assert hash(aliased) == hash(canonical) and free_variables(aliased) <= {"t", "t1", "t2"}


def test_pickled_node_hashes_afresh_in_another_interpreter():
    # A string's hash differs between interpreters, so an unpickled node
    # must not keep the hash it was made with.
    src_dir = os.path.dirname(os.path.dirname(expr.__file__))
    code = (
        "import pickle, sys; from gronwall.expr import parse; "
        "e = pickle.loads(sys.stdin.buffer.read()); "
        "print({parse('t*exp(-s) + r', 'tsr'): 'found'}.get(e))"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(parse("t*exp(-s) + r", VARS)),
            capture_output=True, env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert proc.stdout.decode().strip() == "found", proc.stderr.decode()
