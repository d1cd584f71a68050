"""In-memory span tracer over the package's public functions.

Only the traced run installs it; the program's source is not edited.
Every public function defined in a layer module is replaced, at each
kernelspectra module attribute that refers to it, by a wrapper that
records a span (name, start, end, parent). The program looks these
attributes up at call time (``experiments.build``,
``limit_solver.solve_point``, ``cli.run_universality``, ...), so every
call between layers passes through a wrapper. Private helpers are not
wrapped: their time counts as the self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# The package modules, one layer each. svgplot is part of the
# experiments layer: only experiments' writers call it.
LAYERS = ("ensembles", "kernels", "spectral", "mp_theory", "limit_solver",
          "orthopoly", "experiments", "cli")

# Work done per call, computed from the call's bound arguments.
WORK = {
    "ensembles.sample_matrix": lambda a: a["n"],
    "kernels.gram": lambda a: 2.0 * a["S"].p * a["S"].n ** 2,
    "orthopoly.envelope_coeffs": lambda a: a["samples"],
}


class Tracer:
    """Wraps the layer functions once; records spans while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"kernelspectra.{layer}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        self.functions = {w.__wrapped_name__ for _, w in self._wrappers.values()}

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        measure = WORK.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work[name] += measure(bound.arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped_name__ = name
        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, spans reset."""
        self.spans.clear()
        self.work.clear()
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "kernelspectra" or key.startswith("kernelspectra.")]
        try:
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    hit = self._wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patched.append((module, attr, obj))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per function: (self time in s, calls). Self time excludes children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return {name: (s, c) for name, (s, c) in out.items()}
