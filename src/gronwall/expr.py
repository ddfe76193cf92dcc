"""Arithmetic expression language for coefficients and kernels.

Grammar (whitespace-insensitive, ``#`` starts a comment to end of line)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | name | func '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds looser than unary minus on its left
operand, so ``-t^2`` parses as ``-(t^2)`` while ``2^-3`` is legal.
Numbers are decimal with an optional exponent (``1e-3``); there is no
implicit multiplication (``2t`` is a syntax error).

Evaluation follows IEEE double semantics: division by zero, ``log`` of a
nonpositive value, and overflow produce infinities or NaNs that are
returned as-is for the caller to flag.  ``sign`` is -1, 0 or 1, so that
:func:`derivative`, the exact differentiator, stays in the language.

Nodes are immutable.  Each carries its free variables (``free``, the
names it reads) and its hash, both computed from its children's when it
is made, so :func:`free_variables`, :func:`derivative`, :func:`separate`
and dicts keyed by subtrees never walk a tree to get them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = ["Expr", "ExprError", "evaluate", "free_variables", "parse", "to_source"]

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
}


class ExprError(ValueError):
    """Base class for expression errors; ``offset`` is a byte offset into the source."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    pass


class UnknownFunctionError(ExprError):
    pass


class UnboundVariableError(ExprError):
    pass


class _Node:
    """Base of the node types.  A node computes ``free``, the set of
    variable names it reads, and its hash when it is made, from its
    children's, so neither costs a walk of the tree afterwards.  Equality
    is the dataclasses' field by field comparison."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a string's hash differs between
        # interpreters, so the cached one must not travel.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _node(cls):
    """A frozen dataclass node with its own ``__init__``, which fills
    ``__dict__`` directly, and ``_Node``'s cached hash."""
    cls = dataclass(frozen=True, init=False)(cls)
    cls.__hash__ = _Node.__hash__
    return cls


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a if b <= a else b if a <= b else a | b


@_node
class Num(_Node):
    value: float

    def __init__(self, value: float):
        vars(self).update(value=value, free=frozenset(), _hash=hash(value))


@_node
class Var(_Node):
    name: str

    def __init__(self, name: str):
        vars(self).update(name=name, free=frozenset((name,)), _hash=hash(name))


@_node
class Neg(_Node):
    operand: "Expr"

    def __init__(self, operand: "Expr"):
        vars(self).update(operand=operand, free=operand.free, _hash=hash(("-", operand._hash)))


@_node
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        vars(self).update(
            op=op, left=left, right=right,
            free=_union(left.free, right.free), _hash=hash((op, left._hash, right._hash)),
        )


@_node
class Call(_Node):
    func: str
    arg: "Expr"

    def __init__(self, func: str, arg: "Expr"):
        vars(self).update(func=func, arg=arg, free=arg.free, _hash=hash((func, arg._hash)))


Expr = Union[Num, Var, Neg, BinOp, Call]

EvalContext = Mapping[str, float]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(source: str) -> list[tuple]:
    """``(kind, text, offset)`` per token, kind one of number, name, op
    and a closing end."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed_vars = allowed_vars

    def op(self, ops: str) -> str | None:
        """The current token's text when it is one of the operators ``ops``."""
        kind, text, _ = self.tokens[self.pos]
        return text if kind == "op" and text in ops else None

    def expect_op(self, text: str) -> None:
        if self.op(text) is None:
            raise ExprSyntaxError(f"expected {text!r}", self.tokens[self.pos][2])
        self.pos += 1

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while op := self.op("+-"):
            self.pos += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while op := self.op("*/"):
            self.pos += 1
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.op("-"):
            self.pos += 1
            return Neg(self.parse_factor())
        node = self.parse_atom()
        if self.op("^"):
            self.pos += 1
            return BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return Num(float(text))
        if kind == "name":
            self.pos += 1
            if self.op("("):
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {text!r}", offset)
                self.pos += 1
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.allowed_vars:
                raise UnknownVariableError(f"unknown variable {text!r}", offset)
            return Var(text)
        if self.op("("):
            self.pos += 1
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, variable or '('", offset)


def parse(source: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse ``source`` into an AST whose variables come from ``allowed_vars``."""
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source), frozenset(allowed_vars))
    node = parser.parse_expr()
    kind, text, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {text!r}", offset)
    return node


def evaluate(e: Expr, ctx: EvalContext):
    """Evaluate ``e`` with the bindings in ``ctx``.

    Bindings may be floats or numpy arrays (broadcast together).  The
    result is a float for all-scalar contexts, otherwise an ndarray.
    Non-finite intermediate values propagate; an unbound variable raises
    :class:`UnboundVariableError`.
    """
    with np.errstate(all="ignore"):
        result = _eval(e, ctx)
    if np.ndim(result) == 0:
        return float(result)
    return result


def _eval(e: Expr, ctx: EvalContext):
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        try:
            value = ctx[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}") from None
        return np.asarray(value, dtype=np.float64)
    if isinstance(e, Neg):
        return np.negative(_eval(e.operand, ctx))
    if isinstance(e, Call):
        return FUNCTIONS[e.func](_eval(e.arg, ctx))
    if isinstance(e, BinOp):
        left = _eval(e.left, ctx)
        right = _eval(e.right, ctx)
        if e.op == "+":
            return np.add(left, right)
        if e.op == "-":
            return np.subtract(left, right)
        if e.op == "*":
            return np.multiply(left, right)
        if e.op == "/":
            return np.divide(left, right)
        if e.op == "^":
            return np.power(left, right)
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expr) -> frozenset[str]:
    """Exact set of variable names appearing in ``e``."""
    return e.free


def rename_variables(e: Expr, mapping: Mapping[str, str], binop=BinOp) -> Expr:
    """Return ``e`` with variable names substituted per ``mapping``; a
    subtree that reads none of them is kept as it is, not copied.  Each
    renamed binary node is built as ``binop(op, left, right)``."""
    if e.free.isdisjoint(mapping):
        return e
    if isinstance(e, Var):
        return Var(mapping[e.name])
    if isinstance(e, Neg):
        return Neg(rename_variables(e.operand, mapping, binop))
    if isinstance(e, Call):
        return Call(e.func, rename_variables(e.arg, mapping, binop))
    return binop(
        e.op,
        rename_variables(e.left, mapping, binop),
        rename_variables(e.right, mapping, binop),
    )


_ZERO, _ONE = Num(0.0), Num(1.0)


def _neg(a: Expr) -> Expr:
    if a == _ZERO:
        return a
    return a.operand if isinstance(a, Neg) else Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if _ZERO in (a, b):
        return b if a == _ZERO else a
    return BinOp("-", a, b.operand) if isinstance(b, Neg) else BinOp("+", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    # Exact rewrites only (a unit factor dropped, a sign moved out).
    if _ZERO in (a, b):
        return _ZERO
    if _ONE in (a, b):
        return b if a == _ONE else a
    if isinstance(a, Neg):
        return _neg(_mul(a.operand, b))
    return _neg(_mul(a, b.operand)) if isinstance(b, Neg) else BinOp("*", a, b)


# d f(u) = _CHAIN[f](f(u), du)
_CHAIN = {
    "exp": lambda e, du: _mul(e, du),
    "log": lambda e, du: BinOp("/", du, e.arg),
    "sin": lambda e, du: _mul(Call("cos", e.arg), du),
    "cos": lambda e, du: _neg(_mul(Call("sin", e.arg), du)),
    "sqrt": lambda e, du: BinOp("/", du, BinOp("*", Num(2.0), e)),
    "abs": lambda e, du: _mul(Call("sign", e.arg), du),
    "sign": lambda e, du: _ZERO,
}


def derivative(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` in ``var``.

    A subtree that does not read ``var`` gives ``Num(0.0)``; zero terms and
    unit factors are left out.  ``abs`` and ``sign`` differentiate as away
    from 0.  The result holds no negative literal, so it round-trips
    through :func:`to_source`.
    """
    if var not in e.free:
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Neg):
        return _neg(derivative(e.operand, var))
    if isinstance(e, Call):
        return _CHAIN[e.func](e, derivative(e.arg, var))
    u, v = e.left, e.right
    du, dv = derivative(u, var), derivative(v, var)
    if e.op in "+-":
        return _add(du, dv if e.op == "+" else _neg(dv))
    if e.op == "*":
        return _add(_mul(du, v), _mul(u, dv))
    if e.op == "/":
        if dv == _ZERO:
            return BinOp("/", du, v)
        top = _add(_mul(du, v), _neg(_mul(u, dv)))
        return BinOp("/", top, BinOp("^", v, Num(2.0)))
    if dv == _ZERO:  # v u^(v-1) u'
        fold = isinstance(v, Num) and v.value >= 1.0
        lower = Num(v.value - 1.0) if fold else BinOp("-", v, _ONE)
        return _mul(_mul(v, u if lower == _ONE else BinOp("^", u, lower)), du)
    log_term = _mul(dv, Call("log", u))  # u^v (v' log(u) + v u'/u)
    if du == _ZERO:
        return _mul(e, log_term)
    return _mul(e, _add(log_term, BinOp("/", _mul(v, du), u)))


MAX_RANK = 16
MAX_EXPAND_DEGREE = 4


def separate(e: Expr, variables: Iterable[str]) -> list | None:
    """Split ``e`` into a short sum of products of one-variable factors.

    Returns ``[(coef, {var: factor})]`` with ``e = sum coef * prod factor``,
    one factor per name in ``variables`` (``Num(1.0)`` where a term does
    not read that name), or None when ``e`` is not recognized as
    separable.  Products are expanded over sums, integer powers of sums up
    to ``MAX_EXPAND_DEGREE``; powers of products and ``exp`` of a sum of
    one-variable terms are split.  A subtree that reads at most one
    variable is one factor.  Anything else gives None, as does a sum of
    more than ``MAX_RANK`` terms.

    A split power can be undefined where ``e`` is not: ``(t*s)^0.5`` at
    t, s < 0 gives NaN factors.  Wherever every factor is finite, the sum
    equals ``e``.
    """
    variables = tuple(variables)
    extra = e.free - set(variables)
    if extra:
        raise ValueError(f"expression reads {sorted(extra)} outside {list(variables)}")
    with np.errstate(all="ignore"):
        terms = _separate(e)
    if terms is None:
        return None
    return [(c, {v: f.get(v, _ONE) for v in variables}) for c, f in terms]


def _separate(e: Expr) -> list | None:
    """``separate`` on factor dicts that leave out unit factors; the
    caller holds the ``errstate``."""
    names = e.free
    if not names:
        c = _constant(e)
        return [(c, {})] if math.isfinite(c) else None
    if len(names) == 1:
        return [(1.0, {next(iter(names)): e})]
    if isinstance(e, Neg):
        return _scale(_separate(e.operand), -1.0)
    if isinstance(e, Call):
        return _separate_exp(e.arg) if e.func == "exp" else None
    if e.op == "^":
        return _separate_power(e.left, e.right)
    a, b = _separate(e.left), _separate(e.right)
    if a is None or b is None:
        return None
    if e.op == "+":
        return _collect(a + b)
    if e.op == "-":
        return _collect(a + _scale(b, -1.0))
    if e.op == "*":
        return _product(a, b)
    return _product(a, _reciprocal(b))


def _constant(e: Expr) -> float:
    """The value of ``e``, which reads no variable: a literal is read, not
    evaluated."""
    return float(e.value) if isinstance(e, Num) else float(_eval(e, {}))


def _scale(terms: list | None, c: float) -> list | None:
    return None if terms is None else [(c * tc, f) for tc, f in terms]


def _collect(terms: list) -> list | None:
    """Merge terms with identical factors; None past ``MAX_RANK`` terms.

    Terms whose coefficients cancel are kept, so that a factor that is
    non-finite somewhere still shows when it is sampled.
    """
    merged: dict = {}
    for c, f in terms:
        key = frozenset(f.items())
        merged[key] = merged.get(key, 0.0) + c
    if len(merged) > MAX_RANK:
        return None
    return [(c, dict(key)) for key, c in merged.items()]


def _product(a: list, b: list | None) -> list | None:
    if b is None:
        return None
    out = []
    for ca, fa in a:
        for cb, fb in b:
            f = dict(fa)
            for v, x in fb.items():
                f[v] = BinOp("*", f[v], x) if v in f else x
            out.append((ca * cb, f))
    return _collect(out)


def _reciprocal(terms: list) -> list | None:
    if len(terms) != 1 or terms[0][0] == 0.0:
        return None
    c, f = terms[0]
    return [(1.0 / c, {v: BinOp("/", _ONE, x) for v, x in f.items()})]


def _separate_power(base: Expr, exponent: Expr) -> list | None:
    if exponent.free:
        return None
    n = _constant(exponent)
    terms = _separate(base)
    if terms is None or not math.isfinite(n):
        return None
    if len(terms) == 1:
        # (c prod f)^n = c^n prod f^n wherever the f^n are real.
        c, f = terms[0]
        cn = float(np.power(c, n))
        if not math.isfinite(cn):
            return None
        return [(cn, {v: BinOp("^", x, exponent) for v, x in f.items()})]
    if n != int(n) or not 2 <= n <= MAX_EXPAND_DEGREE:
        return None
    out = terms
    for _ in range(int(n) - 1):
        if out is None:
            return None
        out = _product(out, terms)
    return out


def _separate_exp(arg: Expr) -> list | None:
    """exp(c + sum_v g_v(v)) = e^c prod_v exp(g_v(v))."""
    terms = _separate(arg)
    if terms is None or any(len(f) > 1 for _, f in terms):
        return None
    c, parts = 0.0, {}
    for tc, f in terms:
        if not f:
            c += tc
            continue
        ((v, x),) = f.items()
        # No _mul here: a cancelled term (tc = 0) keeps its factor, so
        # a factor that is non-finite somewhere still shows.
        piece = x if abs(tc) == 1.0 else BinOp("*", Num(abs(tc)), x)
        piece = piece if tc >= 0 else Neg(piece)
        parts[v] = _add(parts[v], piece) if v in parts else piece
    coef = float(np.exp(c))
    if not math.isfinite(coef):
        return None
    return [(coef, {v: Call("exp", g) for v, g in parts.items()})]


# Printing precedence levels; a child is parenthesized when its level is
# below what its position requires.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

_BINOP_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}


def to_source(e: Expr) -> str:
    """Render ``e`` as a string that re-parses to a structurally identical AST."""
    return _render(e, 0)


def _render(e: Expr, min_prec: int) -> str:
    if isinstance(e, Num):
        text = repr(e.value)
        prec = _PREC_ATOM if e.value >= 0 else _PREC_NEG
    elif isinstance(e, Var):
        text, prec = e.name, _PREC_ATOM
    elif isinstance(e, Call):
        text, prec = f"{e.func}({_render(e.arg, 0)})", _PREC_ATOM
    elif isinstance(e, Neg):
        text, prec = "-" + _render(e.operand, _PREC_NEG), _PREC_NEG
    elif isinstance(e, BinOp):
        prec = _BINOP_PREC[e.op]
        if e.op == "^":
            # right-associative; the base must be an atom
            left = _render(e.left, _PREC_ATOM)
            right = _render(e.right, _PREC_NEG)
            text = f"{left}^{right}"
        else:
            left = _render(e.left, prec)
            right = _render(e.right, prec + 1)
            joiner = f" {e.op} " if prec == _PREC_ADD else e.op
            text = f"{left}{joiner}{right}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if prec < min_prec:
        return f"({text})"
    return text
