"""Outside-in spans around dgspec's public functions.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper, in every dgspec module namespace that binds it
(``invert`` is bound in both ``dgspec.linalg`` and ``dgspec.markov``, so
both bindings are wrapped).  Spans are kept in flat in-memory arrays and
written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Spans recorded inside toughness pool workers stay in those processes and
are not seen here.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "graph", "linalg", "markov", "mixing", "toughness", "reports")


def _residual_rel(args, result) -> tuple[str, float]:
    scale = float(np.linalg.norm(np.asarray(args[0])))
    return "linalg.eig_residual_rel.max", result.residual / scale if scale else 0.0


def _pairs(args, result) -> tuple[str, float]:
    return "mixing.pairs", float(result.pair_count)


def _bytes(args, result) -> tuple[str, float]:
    return "reports.render.bytes", float(len(result.encode("utf-8")))


# Counters read off a call's arguments and result: (counter, value); "max"
# counters keep the largest value, the others add up.
_COUNTERS = {
    "linalg.eigendecompose_nonsymmetric": _residual_rel,
    "mixing.verify_eml": _pairs,
    "reports.render": _bytes,
}


class Tracer:
    """Wrappers for the imported dgspec; spans accumulate while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._active: list[int] = []
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "dgspec" or name.startswith("dgspec."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"dgspec.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        # (module, attribute, original, wrapper) for every binding
        self._bindings = [(mod, attr, obj, wrappers[id(obj)])
                          for mod in modules for attr, obj in vars(mod).items()
                          if id(obj) in wrappers]

    def install(self) -> None:
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        self._active.append(0)
        counter = _COUNTERS.get(span_name)
        perf_counter = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(active[nid] > 0)
            self.start.append(0.0)
            self.end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                key, value = counter(args, result)
                old = self.counters.get(key, 0.0)
                self.counters[key] = max(old, value) if key.endswith(".max") else old + value
            return result

        return traced

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass boundaries are marks."""
        return len(self.start)

    def take_counters(self) -> dict[str, float]:
        out, self.counters = self.counters, {}
        return out

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-function and per-layer totals over spans [lo, hi).

        ``<layer>.<fn>.s`` is inclusive time, counting only spans with no
        enclosing span of the same name; ``.calls`` counts every span;
        ``.self_s`` and ``<layer>.self_s`` add up self times.  Every span
        in the range must descend from a root span in the range.
        """
        # slicing an array copies it, so no buffer stays exported while
        # tracing goes on and the arrays grow
        name = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        nested = np.frombuffer(self.nested[lo:hi], dtype=np.int8).astype(bool)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        inner = parent >= 0
        child = np.bincount(parent[inner] - lo, weights=dur[inner], minlength=hi - lo)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for nid, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = float(calls[nid])
            out[f"{span_name}.s"] = float(incl[nid])
            out[f"{span_name}.self_s"] = float(own[nid])
            out[f"{span_name.split('.')[0]}.self_s"] += float(own[nid])
        return out

    def dump(self, path, passes: list[tuple[int, int]]) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            passes=np.array(passes, dtype=np.int64).reshape(-1, 2))
