"""Per-layer spans around the package's public functions, taken from outside.

Each spanned function is replaced by a wrapper in every module namespace
that binds it (the package, ``core``, ``measures``, ``states``, ``oracle``
and ``cli``): those modules import names with ``from .x import name``, so a
patch on the defining module alone would miss calls such as ``gd_dakic`` to
``bloch_decompose``.  ``XStateParams`` is timed through its
``__post_init__``; the class itself is not rebound because ``cli`` tests
instances against it.

Spans are kept in memory (function, parent span, op, start, end) and
written out once, at the end of the run.  A layer's self time is the time
its spans cover minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import geodiscord
from geodiscord import cli, core, measures, oracle, states

LAYERS = {
    "cli": ("main", "parse_state_text", "cmd_compute", "cmd_sweep", "cmd_verify"),
    "core.validate": ("validate_density", "XStateParams.__post_init__"),
    "core.bloch": ("bloch_decompose", "reconstruct"),
    "measures.closed": ("gd_x", "ggqd_x", "classify_x_case", "gap_x"),
    "measures.dakic": ("gd_dakic",),
    "measures.two_sided": ("ggqd_general",),
    "oracle": ("gd_bruteforce", "ggqd_bruteforce", "tqc_sequential"),
    "states": ("normalize_x_phases", "as_x_params", "x_state", "example1", "example2",
               "example3", "example4", "example5", "random_x_params", "random_density"),
}
_NAMESPACES = (geodiscord, core, measures, states, oracle, cli)


def oracle_pairs_per_call(grid=oracle.REFERENCE_GRID) -> dict[str, int]:
    """Axis pairs (two-sided) or axes (one-sided) one oracle call scans.

    A base scan over every grid axis, then ``refine_iters`` windows of
    ``_LOCAL_POINTS``^2 axes; ``tqc_sequential`` runs two one-sided searches.
    """
    base = oracle._scan_angles(grid)[0].size
    window = oracle._LOCAL_POINTS ** 2
    one_sided = base + grid.refine_iters * window
    return {
        "gd_bruteforce": one_sided,
        "tqc_sequential": 2 * one_sided,
        "ggqd_bruteforce": base * base + grid.refine_iters * window * window,
    }


class Tracer:
    """Records spans while enabled; install() puts the wrappers in place."""

    def __init__(self):
        self.functions: list[str] = []
        self.layer_of: list[str] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self.fn = array("h")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("q")
        self.end = array("q")

    def install(self) -> None:
        for layer, names in LAYERS.items():
            for name in names:
                if name == "XStateParams.__post_init__":
                    cls = measures.XStateParams
                    cls.__post_init__ = self._wrap(layer, name, cls.__post_init__)
                    continue
                original = next(getattr(m, name) for m in _NAMESPACES if hasattr(m, name))
                wrapper = self._wrap(layer, name, original)
                for module in _NAMESPACES:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        fid = len(self.functions)
        self.functions.append(name)
        self.layer_of.append(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.fn)
            self.fn.append(fid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_of.append(self.op)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return wrapper

    def _arrays(self):
        return (np.array(self.fn, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.int64), np.array(self.end, dtype=np.int64))

    def save(self, path) -> None:
        fn, parent, start, end = self._arrays()
        np.savez(path, function=fn, parent=parent, op=np.array(self.op_of, dtype=np.int64),
                 start_ns=start, end_ns=end, names=np.array(self.functions),
                 layers=np.array(self.layer_of))

    def summary(self, op_ns: int) -> dict[str, dict[str, float]]:
        """Per-layer calls, self_s, share of traced op time, and errors."""
        fn, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        layer_index = np.array([list(LAYERS).index(layer) for layer in self.layer_of])
        layer_ids = layer_index[fn]
        out = {}
        for i, layer in enumerate(LAYERS):
            mask = layer_ids == i
            self_s = float(self_ns[mask].sum()) / 1e9
            out[layer] = {"calls": int(mask.sum()), "self_s": self_s,
                          "share": self_s / (op_ns / 1e9), "errors": self.errors[layer]}
        return out

    def calls_by_function(self) -> dict[str, int]:
        counts = np.bincount(np.array(self.fn, dtype=np.int64), minlength=len(self.functions))
        return {name: int(c) for name, c in zip(self.functions, counts)}
