"""Spans around the calls into each ``gronwall`` module, kept in memory.

:meth:`Tracer.install` replaces the package's public functions (and the
oracle's operator methods) with wrappers that record one span per call:
name, parent, start, end, the grid size the span belongs to, a count
(points evaluated, bytes assembled or Picard sweeps) and the phase (0 for
the timed loop, k for the k-th set-up).  A wrapper is put in place of every
reference to the original function in every module of the package, so
calls made through ``from .x import f`` copies are traced too.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array

import numpy as np

import gronwall
from gronwall import bounds, cli, expr, grid, kernels, oracle

_MODULES = (gronwall, expr, grid, kernels, bounds, oracle, cli)
_COLUMNS = ("name", "parent", "start", "end", "tag", "count", "phase")


def _points(args, kwargs, result) -> int:
    ctx = args[1]
    return int(np.prod(np.broadcast_shapes(*(np.shape(v) for v in ctx.values()))))


def _assembled_bytes(args, kwargs, result) -> int:
    rhs = args[0]
    return sum(v.nbytes for v in vars(rhs).values() if isinstance(v, np.ndarray))


def _sweeps(args, kwargs, result) -> int:
    return int(result.iterations)


def _grid_m(args, kwargs) -> int:
    return int(args[0].grid.m)


# (module, attribute, span name, count, tag) for every traced function.
FUNCTIONS = (
    (expr, "parse", "expr.parse", None, None),
    (expr, "evaluate", "expr.evaluate", _points, None),
    (grid, "sample", "grid.sample", None, None),
    (grid, "cumulative_trapezoid", "grid.cumulative_trapezoid", None, None),
    (kernels, "compute_B", "kernels.compute_B", None, None),
    (kernels, "apply_R", "kernels.apply_R", None, None),
    (kernels, "apply_Q", "kernels.apply_Q", None, None),
    (kernels, "_simplex_term", "kernels.simplex_term", None, None),
    (bounds, "compute_bound", "bounds.compute_bound", None, _grid_m),
    (bounds, "detect_horizon", "bounds.detect_horizon", None, None),
    (oracle, "picard_extremal", "oracle.picard", _sweeps, None),
    (oracle, "verify_dominance", "oracle.verify_dominance", None, None),
    (cli, "load_config", "cli.load_config", None, None),
    *((cli, name, "cli.command", None, None) for name in dir(cli) if name.startswith("cmd_")),
)
METHODS = (
    (oracle.DiscreteRhs, "__init__", "oracle.rhs_assemble", _assembled_bytes),
    (oracle.DiscreteRhs, "__call__", "oracle.rhs_apply", None),
    (cli.ScenarioConfig, "build_instance", "cli.build_instance", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {c: array("q") for c in _COLUMNS}
        self.stack: list[int] = []
        self.tag = 0
        self.phase = 0
        self._restore: list = []

    def _wrap(self, name, fn, count, tag):
        nid = len(self.names)
        self.names.append(name)
        cols, stack, now = self.cols, self.stack, time.perf_counter_ns
        c_name, c_parent, c_start, c_end = cols["name"], cols["parent"], cols["start"], cols["end"]
        c_tag, c_count, c_phase = cols["tag"], cols["count"], cols["phase"]

        def traced(*args, **kwargs):
            idx = len(c_name)
            outer_tag = self.tag
            if tag is not None:
                self.tag = tag(args, kwargs)
            c_name.append(nid)
            c_parent.append(stack[-1] if stack else -1)
            c_tag.append(self.tag)
            c_count.append(0)
            c_phase.append(self.phase)
            c_end.append(0)
            stack.append(idx)
            c_start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                c_end[idx] = now()
                stack.pop()
                self.tag = outer_tag
            if count is not None:
                c_count[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for home, attr, name, count, tag in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count, tag)
            for mod in _MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original, wrapper))
        for cls, attr, name, count in METHODS:
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original, count, None)
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put the originals back wherever a wrapper of ours is still in place."""
        for owner, key, original, wrapper in reversed(self._restore):
            if getattr(owner, key) is wrapper:
                setattr(owner, key, original)
        self._restore.clear()

    def table(self) -> dict:
        """Columns as arrays plus ``self_ns`` per span."""
        t = {c: np.frombuffer(self.cols[c], dtype=np.int64) if len(self.cols[c]) else np.zeros(0, np.int64)
             for c in _COLUMNS}
        dur = t["end"] - t["start"]
        child = np.zeros_like(dur)
        has_parent = t["parent"] >= 0
        np.add.at(child, t["parent"][has_parent], dur[has_parent])
        t["self_ns"] = dur - child
        return t

    def write(self, path: str) -> None:
        """All spans as gzip CSV: id,parent,name,start_ns,end_ns,tag,count,phase."""
        t = self.table()
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("id,parent,name,start_ns,end_ns,m,count,phase\n")
            for i in range(len(t["name"])):
                fh.write(
                    f"{i},{t['parent'][i]},{self.names[t['name'][i]]},{t['start'][i]},"
                    f"{t['end'][i]},{t['tag'][i]},{t['count'][i]},{t['phase'][i]}\n"
                )
