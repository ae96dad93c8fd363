"""In-memory spans around calls into vuprop's layers, for the traced run.

`Tracer.installed()` wraps each function in LAYERS at every module attribute
that refers to it (its import sites), and each method in METHODS on its
class, then restores the originals. Nothing under vuprop is edited: the
wrapping exists only inside the process that runs the traced commands, and
only while the context is open.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def _points(args) -> int:
    return int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in args)), dtype=np.int64))


# Counters recorded at the same boundaries as the spans. Every
# "bytes_computed" is computed from array sizes, not measured: it ignores
# cache misses and temporaries.
def _scenario_bytes(args, kwargs, result):
    return {"distributions.scenario_matrix.bytes_computed": _nbytes(result.columns)}


def _propagate_many_bytes(args, kwargs, result):
    # Each column reads its N masses and the whole N-entry bin index, and
    # writes K outputs.
    matrix, P = args[0], args[1]
    return {"engine.propagate_many.bytes_computed":
            _nbytes(P.columns, result.values) + P.n_locations * matrix.bin_of.nbytes}


def _file_bytes(args, kwargs, result):
    return {"engine.sidecar_bytes": os.path.getsize(args[0])}


LAYERS = {
    # span name: (module, function, counter)
    "grid.make_grid": ("vuprop.grid", "make_grid",
                       lambda a, k, r: {"grid.nodes": r.size}),
    "distributions.scenario_matrix": ("vuprop.distributions", "scenario_matrix",
                                      _scenario_bytes),
    "distributions.gaussian_on_grid": ("vuprop.distributions", "gaussian_on_grid", None),
    "engine.matrix_from_model": ("vuprop.engine", "matrix_from_model", None),
    "engine.build_model_matrix": ("vuprop.engine", "build_model_matrix", None),
    "engine.propagate_many": ("vuprop.engine", "propagate_many", _propagate_many_bytes),
    "engine.propagate": ("vuprop.engine", "propagate", None),
    "engine.save_matrix": ("vuprop.engine", "save_matrix", _file_bytes),
    "engine.load_matrix": ("vuprop.engine", "load_matrix", _file_bytes),
    "ipsa.output_matrix": ("vuprop.ipsa", "output_matrix", None),
    "ipsa.reference_curve": ("vuprop.ipsa", "reference_curve", None),
    "ipsa.to_deviations": ("vuprop.ipsa", "to_deviations", None),
    "ipsa.summarize": ("vuprop.ipsa", "summarize", None),
    "variogram.integrated_variogram": ("vuprop.variogram", "integrated_variogram", None),
    "variogram.variogram": ("vuprop.variogram", "variogram", None),
    "variogram.local_square_deviation": ("vuprop.variogram", "local_square_deviation", None),
    "mc.mc_propagate_many": ("vuprop.mc", "mc_propagate_many", None),
    "mc.mc_propagate": ("vuprop.mc", "mc_propagate", None),
    "mc.draw_samples": ("vuprop.mc", "draw_samples",
                        lambda a, k, r: {"mc.samples": len(r)}),
}

METHODS = {
    # span name: (module, class, method, counter)
    "config.load": ("vuprop.config", "RunConfig", "load", None),
    # Every model evaluation, builtin or parsed, goes through raw().
    "models.eval": ("vuprop.models", "ModelFunction", "raw",
                    lambda a, k, r: {"models.eval.points": _points(a[1:])}),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run: int  # one id per traced command
    error: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in children[i]:  # in start order: spans are appended as they open
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def nesting_errors(spans: list[Span]) -> int:
    """Spans that ended in an exception, or that a child outlasts, or whose
    children together cover more than the span itself."""
    total = defaultdict(float)
    errors = sum(s.error for s in spans)
    for s in spans:
        if s.parent < 0:
            continue
        p = spans[s.parent]
        total[s.parent] += s.end - s.start
        if s.start < p.start or s.end > p.end or s.run != p.run:
            errors += 1
    errors += sum(1 for i, t in total.items()
                  if t > spans[i].end - spans[i].start)
    return errors


class Tracer:
    """Spans and counters of one traced command sequence, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Wrap LAYERS at their import sites and METHODS on their classes."""
        undo = []
        try:
            for module, *_ in (*LAYERS.values(), *METHODS.values()):
                importlib.import_module(module)
            modules = [m for n, m in list(sys.modules.items())
                       if n == "vuprop" or n.startswith("vuprop.")]
            for name, (module, attr, counter) in LAYERS.items():
                fn = getattr(importlib.import_module(module), attr)
                wrapped = self.wrap(name, fn, counter)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            undo.append((m, key, value))
                            setattr(m, key, wrapped)
            for name, (module, cls_name, attr, counter) in METHODS.items():
                cls = getattr(importlib.import_module(module), cls_name)
                raw = cls.__dict__[attr]
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, counter))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def aggregate(self) -> dict[str, float]:
        """Per span name: self time ("<name>.self_s"), total time
        ("<name>.total_s") and calls ("<name>.calls"); then the counters and
        "spans.errors"."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self_times(self.spans)):
            out[f"{s.name}.self_s"] += own
            out[f"{s.name}.total_s"] += s.end - s.start
            out[f"{s.name}.calls"] += 1
        out.update(self.counters)
        out["spans.errors"] = nesting_errors(self.spans)
        return dict(out)

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "run", "error"],
                "spans": [[s.name, s.start, s.end, s.parent, s.run, s.error]
                          for s in self.spans],
                "counters": dict(self.counters)}
