"""Tracing from outside the program: wrappers on every public function of
each viscosym module, installed after import.

A wrapper is bound under every name that refers to the function in any
``viscosym.*`` module, including names another module imported with
``from .expr import ...``, so calls between modules and inside a module are
both counted.  Kernel (``expr``) functions are aggregated as counts and self
time; functions of the other modules also record one span each.

Self time of a call is its duration minus the time spent in wrapped calls
it made.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("expr", "parsing", "spaces", "linalg", "vector_fields",
                 "adjoint", "reduction", "flows", "cli")
KERNEL = "expr"

# counted per call from the result, as "<name>.points"
_POINTS = {"flows.sample_flow": len}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.points: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []          # name, start, end, parent, op id
        self.op_id = None
        self.wrapped: set[str] = set()       # names of the functions wrapped
        self._child_time = [0.0]             # one accumulator per open call
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn, span: bool):
        child_time = self._child_time
        calls, self_s = self.calls, self.self_s
        points = _POINTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                index = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else None
                self.spans.append([name, 0.0, 0.0, parent, self.op_id])
                self._open_spans.append(index)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner
                if span:
                    self._open_spans.pop()
                    self.spans[index][1:3] = (start, end)
            if points:
                self.points[name] += points(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the layer modules and rebind every
        reference to them inside the package."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules.get(f"viscosym.{short}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[obj] = self.wrap(f"{short}.{attr}", obj, span=short != KERNEL)
                self.wrapped.add(f"{short}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "viscosym" and not mod_name.startswith("viscosym."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "points": dict(self.points), "wrapped": sorted(self.wrapped)}

    def write_spans(self, path, process: str, clock_origin: float) -> None:
        """Append the spans as JSON lines; ids are "<process>:<index>" and
        times are seconds since ``clock_origin``."""
        with open(path, "a") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": f"{process}:{index}", "name": name,
                    "start": start - clock_origin, "end": end - clock_origin,
                    "parent": None if parent is None else f"{process}:{parent}",
                    "op": op}) + "\n")


def merge(summaries) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "points": defaultdict(int)}
    wrapped = set()
    for summary in summaries:
        wrapped.update(summary["wrapped"])
        for key in out:
            for name, value in summary[key].items():
                out[key][name] += value
    return dict(out, wrapped=sorted(wrapped))
