"""Span tracer that wraps the public functions of the thetadiv layers.

The wrapping happens from outside the package: :func:`install` replaces
each public function of the six layer modules (and the public methods and
validating constructors of their public classes) with a timing wrapper,
and rebinds every module-level name that referred to the original, so
calls made between modules (``solve`` calling ``curves.intersect``) are
traced too.  Nothing under ``src/`` is edited, and an untraced run never
imports this module.

A layer is the module a function is defined in.  A span's self time is
its duration minus the time covered by its direct child spans, so a
layer's self time is its busy time minus the time its spans spent in
child spans of other layers.  Busy time counts only the outermost span of
a layer, so nested calls within one layer are not counted twice.

Aggregates cover every call.  Individual spans are kept in memory up to
SPAN_CAP and written out by :meth:`Tracer.write_spans`; later spans
are counted in ``spans_dropped``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import LAYERS

SPAN_CAP = 100_000

class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.reset()

    def reset(self) -> None:
        """Clear every aggregate and recorded span."""
        self.stack: list[list] = []  # per open span: [child seconds, span index]
        self.depth = Counter()
        self.calls = Counter()  # per wrapped function key
        self.fn_s = defaultdict(float)  # inclusive seconds per function key
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()  # values reported by result hooks
        self.spans: list = []
        self.spans_dropped = 0

    def wrap(self, layer: str, key: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            outermost = tracer.depth[layer] == 0
            tracer.depth[layer] += 1
            if len(tracer.spans) < SPAN_CAP:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.spans_dropped += 1
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.depth[layer] -= 1
                duration = end - start
                tracer.self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if outermost:
                    tracer.busy_s[layer] += duration
                tracer.calls[key] += 1
                tracer.fn_s[key] += duration
                if index >= 0:
                    tracer.spans[index] = (key, start, end, parent, tracer.op_id)
            if on_result is not None:
                on_result(tracer.counters, result)
            return result

        return traced

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(c for key, c in self.calls.items() if key.startswith(prefix))

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent span index
        (-1 for a span opened directly by an op) and op id."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                key, start, end, parent, op_id = span
                fh.write(
                    json.dumps(
                        {"id": i, "name": key, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _count_nonzero(counters, result) -> None:
    if result:
        counters["curves.intersect.nonzero"] += 1


def _count_terms(counters, result) -> None:
    counters["drcycle.terms"] += len(result.terms)


def _largest_m(counters, result) -> None:
    counters["solve.m"] = max(counters["solve.m"], result["expected"])


RESULT_HOOKS = {
    "curves.intersect": _count_nonzero,
    "drcycle.dr_expansion": _count_terms,
    "solve.certify_basis": _largest_m,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield name, obj


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    """Wrap public methods, and ``__init__`` when the class validates its
    fields in ``__post_init__`` (the constructors that do real work)."""
    for name, attr in list(vars(cls).items()):
        if name == "__init__" and "__post_init__" in vars(cls):
            key = f"{layer}.{cls.__name__}"
            setattr(cls, name, tracer.wrap(layer, key, attr))
        elif name.startswith("_"):
            continue
        elif isinstance(attr, classmethod):
            key = f"{layer}.{cls.__name__}.{name}"
            setattr(cls, name, classmethod(tracer.wrap(layer, key, attr.__func__)))
        elif inspect.isfunction(attr):
            key = f"{layer}.{cls.__name__}.{name}"
            setattr(cls, name, tracer.wrap(layer, key, attr))


def install(tracer: Tracer, package) -> None:
    """Wrap every layer of an imported ``thetadiv`` package in place."""
    modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
    replacement = {}
    for layer, module in modules.items():
        for name, fn in _public_functions(module):
            key = f"{layer}.{name}"
            replacement[fn] = tracer.wrap(layer, key, fn, RESULT_HOOKS.get(key))
        for name, obj in list(vars(module).items()):
            if not name.startswith("_") and inspect.isclass(obj) and obj.__module__ == module.__name__:
                _wrap_class(tracer, layer, obj)
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(module, name, replacement[obj])
