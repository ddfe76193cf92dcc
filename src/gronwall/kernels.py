"""Kernel evaluation and the iterated simplex-integral engine.

A kernel of arity ``i`` is an expression ``k(t, t1, ..., ti)`` over the
outer time ``t`` and ``i`` inner variables; integrals run over the ordered
simplex ``alpha <= ti <= ... <= t1 <= t``.  The two-variable kernel
``k(t, s)`` has arity 1 (``s`` aliases ``t1``) and the three-variable
kernel ``h(t, s, r)`` has arity 2.  Every kernel carries its exact
t-derivative (``expr.derivative``) as a second expression, integrated and
checked like the body.

All quadrature is nested composite trapezoid on the shared grid, with
inner integrals over fewer than two nodes evaluating to zero.  A kernel
term pins ``t`` and its first ``n_diag`` inner slots to the outer node,
integrates the other ``depth = arity - n_diag`` slots and carries a weight
``w`` on the innermost one.  It is linear in ``w``.

A separable term is a chain of running sums.  With the pinned slots
folded into ``t``, ``expr.separate`` writes the kernel as a short sum of
``coef * f0(t) f1(x1) ... fd(xd)`` over the integrated slots ``x1..xd``,
and the nested rule factors exactly into
``term(w) = sum coef * f0 * cumtrap(f1 * cumtrap(... fd * w))``.  Building
and applying cost O(m * depth * rank) with no O(m^2) array.  Unit factors
are structural: a slot that a term does not read gets the factor
``Num(1.0)`` from ``expr.separate`` (every factor of a constant kernel is
one), and such a factor is never sampled or checked; it is None in the
chain and skipped when the chain is applied.  Every other factor is
evaluated once on the grid and checked as one row.  The chain is used
only when every coefficient and every factor sample is finite and
nonnegative, so the kernel is nonnegative and finite on the whole grid,
and when each term's factors multiply to within ``2^(+-SAFE_LOG2)``
(``e^(+-t)`` factors overflow past |t| ~ 709, and tiny factors lose
precision as subnormals).

The separation and the factor samples belong to the term's shape, not to
the kernel.  Pinning folds each ``t - t`` it makes to 0.0 (its value at
every node), so cor35's ``c*exp(t-s)`` on the diagonal is ``c*exp(0)``.
A body ``Num(c) * S`` has the shape S when S, pinned, reads no variable or
at least two; a bare ``Num(c)`` has the shape ``Num(1.0)``.  A shape keeps
its preparation on itself, in the node's ``__dict__``, so it is keyed by
identity, lives exactly as long as the tree and needs no process-wide
table: S separated once per ``(arity, n_diag)`` and, per grid, its
read-only factor rows with their log2 spans and, from its second use on
ones, each term's product on the all-ones weight.  The kernel's
coefficients are ``c * cs`` for S's coefficients ``cs``, the very
products that ``expr.separate`` forms for ``c * S`` (it adds them to 0.0
where it merges the terms of a product, and evaluates a constant ``c * S``
as one number).  A chain is the shape's rows with these coefficients,
tested on them and the stored spans: bit for bit the chain of the whole
body.  On ones (``compute_B``; R and Q where b^p = 1) a term sums
``coef * product`` in part order, op for op its chain on ones.  Kernels
differing only in ``c``, like the suite's instances of its templates, thus
share all of it.  Every other body, or one whose S reads a single variable
(``separate`` folds ``c`` into that factor, and a shape that is its own
factor would hold itself), is its own shape with ``c = 1``.  A kernel
keeps its coefficients per ``(n_diag, use_dt)`` and its chain per
``(grid, n_diag, use_dt)``, None included, so the bound and the Picard
oracle's ``DiscreteRhs`` share one chain object.

A term without a chain is assembled densely, by one shape rule.  A term that
integrates at least one slot and reads neither ``t`` nor a pinned slot
depends on the outer node only through the upper limit of its outermost
integral, so it is ``cumulative``: its map is the running trapezoid sum
of the same term with its first integrated slot pinned as well.  What is
left to build is a depth-0 term, a diagonal of samples (O(m)), or a
lower-triangular matrix of nested trapezoid weights (O(m^2) memory,
O(m^(depth+1)) to build, depth counting the slots still integrated).

Applying a dense map costs O(m) or one O(m^2) mat-vec.  The dense path
checks the samples of the body and of the t-derivative alike: they must be
finite and nonnegative (tolerance -1e-12), and violations raise
:class:`KernelError` or :class:`NegativeKernelError` naming the kernel and
the node.  So every sample that ``apply_Q`` integrates is checked, on one
path or the other.  The Picard oracle's right-hand side takes the same
choice per kernel: a chain where one exists, and otherwise the dense maps,
summed by ``_sum_term_maps``.

An error names a kernel as its config does (k and h in a pair, k1..kn in
an iterated set): ``KernelSet.named`` gives the names to R, Q and the
oracle's right-hand side, and ``compute_B``, whose k and h are a pair too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import expr as expr_mod
from .expr import BinOp, Expr, Num, Var, derivative, parse, rename_variables, separate
from .grid import Grid, GridFunction, _running_trapezoid_raw

__all__ = [
    "Kernel",
    "KernelSet",
    "KernelError",
    "NegativeKernelError",
    "compute_B",
    "apply_R",
    "apply_Q",
    "MAX_ITERATED_KERNELS",
]

NONNEG_TOL = -1e-12
SAFE_LOG2 = 600.0
MAX_ITERATED_KERNELS = 4

_ALIASES = {"s": "t1", "r": "t2"}
_UNIT = Num(1.0)
_T = Var("t")


class KernelError(ValueError):
    pass


class NegativeKernelError(KernelError):
    pass


def _canonical(e: Expr | str, arity: int, what: str) -> Expr:
    """``e`` over t, t1..t<arity>, parsed when given as source; a tree
    that reads no alias is kept as it is, not rebuilt."""
    names = {f"t{i}" for i in range(1, arity + 1)}
    aliases = {a: c for a, c in _ALIASES.items() if c in names}
    if isinstance(e, str):
        e = parse(e, {"t"} | names | set(aliases))
    e = rename_variables(e, aliases)
    extra = e.free - {"t"} - names
    if extra:
        raise KernelError(
            f"{what} of an arity-{arity} kernel uses {sorted(extra)}; "
            f"allowed variables are t, {', '.join(sorted(names))}"
        )
    return e


@dataclass(frozen=True)
class Kernel:
    """Arity-tagged kernel expression and its t-derivative.

    ``body`` may be given as a source string; the aliases ``s`` (for
    ``t1``) and ``r`` (for ``t2``) are normalized away.  ``dt_body`` is the
    exact derivative of ``body`` in ``t``.
    """

    arity: int
    body: Expr

    def __post_init__(self):
        if self.arity < 1:
            raise KernelError(f"kernel arity must be >= 1, got {self.arity}")
        object.__setattr__(self, "body", _canonical(self.body, self.arity, "body"))
        # Memos, not fields: _prepare per (n_diag, use_dt) and
        # kernels._chain per (grid, n_diag, use_dt).
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_chains", {})

    @cached_property
    def dt_body(self) -> Expr:
        return derivative(self.body, "t")

    @property
    def is_zero(self) -> bool:
        return isinstance(self.body, Num) and self.body.value == 0.0

    @cached_property
    def dt_is_zero(self) -> bool:
        """True when d/dt is structurally zero (t never occurs in the body)."""
        return self.dt_body == Num(0.0)

    def _prepared(self, n_diag: int, use_dt: bool = False) -> tuple:
        """``(coefs, shape)`` of the term with the first ``n_diag`` inner
        slots pinned to ``t`` (see ``_prepare``); computed once per key."""
        key = (n_diag, use_dt)
        if key not in self._plans:
            body = self.dt_body if use_dt else self.body
            self._plans[key] = _prepare(body, self.arity, n_diag)
        return self._plans[key]


class _Shape:
    """A coefficient-free pinned term body prepared for one ``(arity,
    n_diag)``: its slots, ``expr.separate`` of it over them (or None),
    whether it reads no variable and, per grid, ``sampled`` and ``on_ones``."""

    __slots__ = ("slots", "terms", "constant", "_samples", "_on_ones")

    def __init__(self, body: Expr, arity: int, n_diag: int):
        self.slots = ["t", *(f"t{i}" for i in range(n_diag + 1, arity + 1))]
        self.constant = not body.free
        self.terms = separate(body, self.slots)
        self._samples = {}
        self._on_ones = {}

    def sampled(self, g: Grid) -> tuple | None:
        """Per term, ``(outer, inner, span)``: its read-only factor rows as a
        chain part holds them (a unit factor as None) and the sum of their
        log2 spans; None when a factor has a negative or non-finite sample.
        Sampled once per grid, keyed by the numbers that define it, so that
        a long-lived shape keeps no grid and its nodes alive."""
        key = (g.alpha, g.beta, g.m)
        if key not in self._samples:
            self._samples[key] = self._sample(g)
        return self._samples[key]

    def _sample(self, g: Grid) -> tuple | None:
        T = g.nodes
        out = []
        for _, factors in self.terms:
            rows, spans = [], 0.0
            for v in self.slots:
                f = factors[v]
                if f == _UNIT:
                    rows.append(None)
                    continue
                row = expr_mod.evaluate(f, {v: T})
                span = _log2_span(row)
                if span is None:
                    return None
                spans += span
                row.flags.writeable = False
                rows.append(row)
            out.append((rows[0], tuple(rows[:0:-1]), spans))
        return tuple(out)

    def on_ones(self, g: Grid) -> tuple | None:
        """Per term, its read-only product on the all-ones weight as a chain
        part computes it before its coefficient, kept per grid from the
        shape's second use there; None at the first, whose caller applies its
        chain (a shape parsed for one kernel is used once).  The caller holds
        the errstate, and ``sampled(g)`` is not None."""
        key = (g.alpha, g.beta, g.m)
        if key not in self._on_ones:
            self._on_ones[key] = None
        elif self._on_ones[key] is None:
            ones, products = np.ones(g.m + 1), []
            for outer, inner, _ in self.sampled(g):
                v = _apply_parts((_Part(None, outer, inner),), ones, g.dt)
                v.flags.writeable = False
                products.append(v)
            self._on_ones[key] = tuple(products)
        return self._on_ones[key]


def _prepare(body: Expr, arity: int, n_diag: int) -> tuple:
    """``(coefs, shape)`` of a kernel term: the ``_Shape`` holding its
    separation and samples, and the term's coefficients over it (None where
    ``expr.separate`` of the whole pinned body is None).  A body
    ``Num(c) * S`` shares the shape S keeps on itself when S, pinned, reads
    no variable or at least two (see the module docstring), with S's
    coefficients scaled by c as ``expr.separate`` scales them; any other
    body is a shape of its own.
    """
    c, S = _leading_coefficient(body)
    memo = {} if c is None else vars(S).setdefault("_shapes", {})
    shape = memo.get((arity, n_diag))
    if shape is None and c is not None and len((pinned := _pin(S, n_diag)).free) != 1:
        shape = memo[arity, n_diag] = _Shape(pinned, arity, n_diag)
    if shape is None:
        own = _Shape(_pin(body, n_diag), arity, n_diag)
        return (None if own.terms is None else tuple(cs for cs, _ in own.terms)), own
    if shape.terms is None:
        return None, shape
    if shape.constant:  # separate evaluates the constant c * S as one number
        ((cs, _),) = shape.terms
        return ((c * cs,) if math.isfinite(c * cs) else None), shape
    if not math.isfinite(c):  # separate(Num(c)) is None
        return None, shape
    # expr._product forms c * cs and expr._collect adds it to 0.0.
    return tuple(0.0 + c * cs for cs, _ in shape.terms), shape


def _pin(e: Expr, n_diag: int) -> Expr:
    """``e`` with its first ``n_diag`` inner slots renamed to ``t``, and each
    ``t - t`` that the renaming makes folded to ``0.0``, its value at every
    (finite) grid node."""
    return rename_variables(e, {f"t{i}": "t" for i in range(1, n_diag + 1)}, _pinned_binop)


def _pinned_binop(op: str, left: Expr, right: Expr) -> Expr:
    return Num(0.0) if op == "-" and left == right == _T else BinOp(op, left, right)


def _leading_coefficient(body: Expr) -> tuple:
    """``(c, S)`` for a body ``Num(c) * S``, ``(c, _UNIT)`` for a bare
    ``Num(c)`` and ``(None, body)`` for any other."""
    if isinstance(body, Num):
        return body.value, _UNIT
    if isinstance(body, BinOp) and body.op == "*" and isinstance(body.left, Num):
        return body.left.value, body.right
    return None, body


@dataclass(frozen=True)
class KernelSet:
    """Either the pair {k(t,s), h(t,s,r)} or an iterated list k1..kn."""

    form: str  # "pair" | "iterated"
    kernels: tuple

    @classmethod
    def pair(cls, k: Kernel | None = None, h: Kernel | None = None) -> "KernelSet":
        if k is not None and k.arity != 1:
            raise KernelError(f"pair kernel k must have arity 1, got {k.arity}")
        if h is not None and h.arity != 2:
            raise KernelError(f"pair kernel h must have arity 2, got {h.arity}")
        return cls("pair", (k, h))

    @classmethod
    def iterated(cls, kernels) -> "KernelSet":
        ks = tuple(kernels)
        if not ks:
            raise KernelError("iterated kernel set must not be empty")
        if len(ks) > MAX_ITERATED_KERNELS:
            raise KernelError(
                f"at most {MAX_ITERATED_KERNELS} iterated kernels supported, got {len(ks)}"
            )
        for i, k in enumerate(ks, start=1):
            if k.arity != i:
                raise KernelError(
                    f"iterated kernels need arities 1..n in order; "
                    f"kernel {i} has arity {k.arity}"
                )
        return cls("iterated", ks)

    def named(self) -> tuple:
        """``(name, kernel)`` of each kernel present, in order, named as a
        config names it: k and h in a pair, k1..kn in an iterated set."""
        if self.form == "pair":
            return tuple((n, k) for n, k in zip(("k", "h"), self.kernels) if k is not None)
        return tuple((f"k{i}", k) for i, k in enumerate(self.kernels, start=1))

    @property
    def k(self) -> Kernel | None:
        return self._pair()[0]

    @property
    def h(self) -> Kernel | None:
        return self._pair()[1]

    def _pair(self) -> tuple:
        if self.form != "pair":
            raise KernelError(f"expected a 'pair' kernel set, got {self.form!r}")
        return self.kernels


def _samples(
    e: Expr, ctx: dict, what: str, use_dt: bool, node: int | None = None
) -> np.ndarray:
    """Samples of ``e`` on the broadcast shape of ``ctx``, checked finite and
    nonnegative.  A matrix keeps only the simplex part (inner <= outer), so
    unused entries (possibly NaN for kernels like sqrt(t-s)) cannot leak
    into the sums.  An error names kernel ``what``; for a t-derivative
    (``use_dt``) it names the outer node, ``node`` when a nested sample
    belongs to one, else the sample's row."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in ctx.values()))
    vals = np.broadcast_to(np.asarray(expr_mod.evaluate(e, ctx)), shape)
    if len(shape) == 2:
        vals = np.tril(vals)
    finite = bool(np.isfinite(vals).all())
    bad = ~np.isfinite(vals) if not finite else vals < NONNEG_TOL
    if not bad.any():
        return vals
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    how = "non-finite" if not finite else f"negative ({vals[idx]:.6e})"
    if use_dt:
        at = idx[0] if node is None else node
        msg = f"d/dt of kernel {what} is {how} at node {at}"
    else:
        msg = f"kernel {what} is {how} at node index {idx}"
    raise (KernelError if not finite else NegativeKernelError)(msg)


class _TermMap(NamedTuple):
    """A kernel term as the linear map ``w -> inner . w``, followed by a
    running trapezoid sum when ``cumulative``.

    ``inner`` is a diagonal (a vector) or a lower-triangular matrix.  As
    with a chain, non-finite values pass through ``apply`` silently.
    """

    inner: np.ndarray
    cumulative: bool

    def apply(self, w: np.ndarray, g: Grid) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = self.inner * w if self.inner.ndim == 1 else self.inner @ w
            if self.cumulative:
                out = _running_trapezoid_raw(out, g.dt)
        return out


def _nested_rows(
    sample, g: Grid, outer: list, ints: list, fixed: dict, n: int,
    node: int | None = None,
) -> np.ndarray:
    """Weights of the nested trapezoid rule for the outer nodes ``x < n``.

    Row ``x`` holds the weights on ``w`` of the iterated integral of the
    kernel over ``T[x] >= ints[0] >= ... >= ints[-1]``, with the ``outer``
    slots at ``T[x]``, the slots in ``fixed`` held and ``w`` at the
    innermost slot; ``sample(ctx, node=...)`` gives checked samples.  The
    last two variables are sampled as one matrix, whose row ``x`` takes
    the trapezoid weights of an integral up to node ``x`` (row 0 vanishes);
    deeper levels recurse one node at a time, passing down the top-level
    row as ``node``.
    """
    T = g.nodes[:n]
    if len(ints) == 1:
        col = T[:, None]
        ctx = {**fixed, **{name: col for name in outer}, ints[0]: T[None, :]}
        rows = sample(ctx, node=node)
        with np.errstate(all="ignore"):
            rows *= g.dt
            rows[:, 0] *= 0.5
            idx = np.arange(n)
            rows[idx, idx] *= 0.5
            rows[0, 0] *= 0.0
        return rows
    rows = np.zeros((n, n))
    for x in range(1, n):
        at = {**fixed, **{name: T[x] for name in outer}}
        weights = np.full(x + 1, g.dt)
        weights[[0, x]] = g.dt / 2.0
        inner = _nested_rows(
            sample, g, ints[:1], ints[1:], at, x + 1, x if node is None else node
        )
        rows[x, : x + 1] = weights @ inner
    return rows


def _term_map(
    k: Kernel, g: Grid, n_diag: int, use_dt: bool = False, label: str = "kernel"
) -> _TermMap:
    """Assemble the linear map in ``w`` of one kernel term (see the module
    docstring for its shape rule)."""
    e = k.dt_body if use_dt else k.body
    sample = partial(_samples, e, what=label, use_dt=use_dt)
    names = [f"t{i}" for i in range(1, k.arity + 1)]
    pinned, ints = ["t", *names[:n_diag]], names[n_diag:]
    cumulative = bool(ints) and not e.free & set(pinned)
    if cumulative:  # a running sum of the term with ints[0] pinned
        pinned, ints = [*pinned, ints[0]], ints[1:]
    if not ints:
        return _TermMap(sample({name: g.nodes for name in pinned}), cumulative)
    return _TermMap(_nested_rows(sample, g, pinned, ints, {}, g.m + 1), cumulative)


def _sum_term_maps(terms, g: Grid) -> tuple:
    """Sum the ``n_diag = 0`` maps of ``(kernel, label)`` pairs into ``(A, C)``.

    The sum applied to ``w`` is ``A @ w + cumulative_trapezoid(C . w)``;
    either part is None when no term has that shape.
    """
    parts = {False: None, True: None}
    for k, label in terms:
        inner, cumulative = _term_map(k, g, n_diag=0, label=label)
        total = parts[cumulative]
        if total is not None and total.ndim != inner.ndim:
            total, inner = (np.diag(x) if x.ndim == 1 else x for x in (total, inner))
        parts[cumulative] = inner if total is None else total + inner
    return parts[False], parts[True]


class _Part(NamedTuple):
    """One rank-one part ``coef * f0 * cumtrap(f1 * cumtrap(... fd * w))`` of
    a chain.  ``coef`` is None when it is 1.0, ``outer`` is ``f0`` and
    ``inner`` is ``(fd, ..., f1)``, innermost first; a unit factor is
    None, never sampled, as multiplying by 1.0 would change no bit."""

    coef: float | None
    outer: np.ndarray | None
    inner: tuple


class _Chain(NamedTuple):
    """A separable kernel term as its rank-one parts (see the module
    docstring); the factor samples are read-only and shared by every user
    of the chain."""

    parts: tuple

    def apply(self, w: np.ndarray, g: Grid) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _apply_parts(self.parts, w, g.dt)


def _apply_parts(parts: tuple, w: np.ndarray, dt: float) -> np.ndarray:
    """Sum of the rank-one ``parts`` applied to ``w``, in order, as a new
    array; the caller holds the ``errstate``."""
    out = None
    for coef, outer, inner in parts:
        v = w
        for f in inner:
            v = _running_trapezoid_raw(v if f is None else f * v, dt)
        if v is w:  # depth 0: nothing fresh to scale in place yet
            v = w.copy() if outer is None else outer * w
        elif outer is not None:
            v *= outer
        if coef is not None:
            v *= coef
        if out is None:
            out = v
        else:
            out += v
    return out


def _chain(k: Kernel, g: Grid, n_diag: int, use_dt: bool = False) -> _Chain | None:
    """The running-sum form of a kernel term, or None when the kernel does
    not separate into nonnegative factors within the safe range; sampled
    once per grid and kept on the kernel."""
    key = (g, n_diag, use_dt)
    if key not in k._chains:
        k._chains[key] = _sample_chain(k, g, n_diag, use_dt)
    return k._chains[key]


def _sample_chain(k: Kernel, g: Grid, n_diag: int, use_dt: bool) -> _Chain | None:
    """The chain of the kernel's coefficients on its shape's samples; the
    coefficients are checked before the shape is sampled."""
    coefs, shape = k._prepared(n_diag, use_dt)
    if coefs is None:
        return None
    for coef in coefs:
        if not 0.0 <= coef < math.inf:
            return None
    sampled = shape.sampled(g)
    if sampled is None:
        return None
    parts = []
    for coef, (outer, inner, span) in zip(coefs, sampled):
        if span + (abs(math.log2(coef)) if coef > 0 else 0.0) > SAFE_LOG2:
            return None
        parts.append(_Part(None if coef == 1.0 else coef, outer, inner))
    return _Chain(tuple(parts))


def _log2_span(row: np.ndarray) -> float | None:
    """``max |log2 x|`` over the positive samples ``x`` of a factor (0.0
    when there are none), or None unless every sample is finite and
    nonnegative.  ``|log2|`` falls to 1 and rises after it, so the largest
    and the least positive samples attain the maximum."""
    hi, lo = np.maximum.reduce(row), np.minimum.reduce(row)
    if not (lo >= 0.0 and hi < math.inf):  # NaN fails too
        return None
    if lo == 0.0:
        lo = np.minimum.reduce(row, where=row > 0.0, initial=math.inf)
        if lo == math.inf:
            return 0.0
    return max(abs(math.log2(hi)), abs(math.log2(lo)))


def _simplex_term(
    k: Kernel,
    w: np.ndarray,
    g: Grid,
    n_diag: int,
    use_dt: bool = False,
    label: str = "kernel",
) -> np.ndarray:
    """Iterated simplex integral of ``kernel * w`` against each outer node.

    The kernel's slot ``t`` (and its first ``n_diag`` inner slots) are
    pinned to the outer node t_j; the remaining ``arity - n_diag`` slots
    are integrated over the ordered simplex below t_j, with ``w`` attached
    to the innermost variable.  ``n_diag = arity`` is the pure diagonal
    term ``k(t, t, ..., t) * w(t)``.  A separable kernel runs as a chain
    of running sums; any other goes through the dense ``_term_map``.
    """
    chain = _chain(k, g, n_diag, use_dt)
    if chain is not None:
        return chain.apply(w, g)
    return _term_map(k, g, n_diag, use_dt, label).apply(w, g)


def _term(k: Kernel, w: np.ndarray | None, g: Grid, n_diag: int, use_dt=False, label="kernel"):
    """``_simplex_term`` on ``w``, None for the all-ones weight: there a chain
    sums ``coef * product`` over its shape's products on ones where they are
    kept, and the result may be a shared read-only row.  The caller holds
    the errstate."""
    chain = None if w is not None else _chain(k, g, n_diag, use_dt)
    if chain is None:
        return _simplex_term(k, np.ones(g.m + 1) if w is None else w, g, n_diag, use_dt, label)
    products = k._plans[n_diag, use_dt][1].on_ones(g)
    if products is None:
        return _apply_parts(chain.parts, np.ones(g.m + 1), g.dt)
    out = None
    for part, v in zip(chain.parts, products):
        v = v if part.coef is None else part.coef * v
        out = v if out is None else out + v
    return out


def _require_grid(f: GridFunction, g: Grid, name: str) -> None:
    if f.grid != g:
        raise KernelError(f"{name} lives on {f.grid}, expected {g}")


def compute_B(
    b: GridFunction, k: Kernel | None, h: Kernel | None, g: Grid
) -> GridFunction:
    """B(t) = b(t) + int_a^t k(t,s) ds + int_a^t int_a^s h(t,s,r) dr ds.

    ``k`` must have arity 1 and ``h`` arity 2; pass None for an absent
    kernel.  A separable kernel costs O(m * depth * rank) on the first
    grid its shape meets and O(m * rank) after; otherwise the k-term costs
    O(m^2) and a t-dependent h-term O(m^3).
    """
    _require_grid(b, g, "b")
    return _weighted_sum(KernelSet.pair(k, h), None, g, 0, False, b.values.copy())


def _weighted_sum(
    ks: KernelSet, w: GridFunction | None, g: Grid, n_diag: int, use_dt: bool, out=None
):
    """R (``n_diag = 1``) or Q (``use_dt``) of ``ks`` on ``w``, None for
    the all-ones weight; each term is added in place to ``out`` (zeros if
    None) in kernel order, so B is the pair's terms on ones added to b."""
    if w is not None:
        _require_grid(w, g, "w")
    if out is None:
        out = np.zeros(g.m + 1)
    with np.errstate(all="ignore"):
        for name, k in ks.named():
            if not (k.is_zero or use_dt and k.dt_is_zero):
                out += _term(k, None if w is None else w.values, g, n_diag, use_dt, name)
    return GridFunction(g, out)


def apply_R(ks: KernelSet, w: GridFunction | None, g: Grid) -> GridFunction:
    """The functional R[w](t) of a kernel set.

    R[w](t) = k1(t,t) w(t) + sum_{i>=2} iterated integral of
    k_i(t, t, t2, ..., ti) w(ti) over the simplex below t; ``w`` None is
    the all-ones weight.  A pair {k, h} is walked as (k1, k2) = (k, h),
    an absent kernel skipped.  A separable k_i costs O(m * (i-1) * rank);
    otherwise it costs O(m^i).
    """
    return _weighted_sum(ks, w, g, n_diag=1, use_dt=False)


def apply_Q(ks: KernelSet, w: GridFunction | None, g: Grid) -> GridFunction:
    """The functional Q[w](t): as R but with dk_i/dt and integrals from t1.

    Each term integrates the kernel's ``dt_body``, its exact t-derivative.
    The bounds that use Q need dk_i/dt >= 0 on the simplex: a negative or
    non-finite sample raises :class:`NegativeKernelError` or
    :class:`KernelError` naming ``d/dt of kernel <name>`` and the outer node.
    A ``dt_body`` that separates into nonnegative factors costs
    O(m * i * rank); otherwise k_i costs O(m^(i+1)).
    """
    return _weighted_sum(ks, w, g, n_diag=0, use_dt=True)
