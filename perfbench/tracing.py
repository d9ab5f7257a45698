"""Spans and counters around the public functions of each sgis layer.

`install` wraps, from outside the package, every public function that a layer
module defines, and replaces each reference to it in every loaded `sgis`
module, so that names brought in with `from .x import y` are wrapped where
they are used as well.  `AlgebraElement.__mul__` is wrapped as `algebra.mul`.
The path layer is too hot for spans: only `compatible`, `compose` and
`path_key` are wrapped, and with bare call counters; their time falls into
the self time of the span that called them.

A span records name, start, end, parent span and operation id.  Self time is
a span's duration minus the durations of its direct child spans, summed per
name as the spans close.  The first SPAN_CAP spans are also kept in memory
and written out by `write`.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("graph", "paths", "semilattice", "semigroup", "oracle", "spectrum", "algebra", "cli")
COUNTED = ("compatible", "compose", "path_key")
OP_SPAN = "bench.op"
SPAN_CAP = 100_000

# (metric, unit, better); the list BENCHMARK.json's per_layer repeats
PER_LAYER = [
    ("graph.parse_graph.calls", "count", "lower"),
    ("graph.parse_graph.self_ms", "ms", "lower"),
    ("paths.compatible.calls", "count", "lower"),
    ("paths.compose.calls", "count", "lower"),
    ("paths.path_key.calls", "count", "lower"),
    *(
        (f"semilattice.{fn}.{kind}", unit, "lower")
        for fn in ("canonicalize", "lower_closure_unchecked", "is_separated_compatible_family", "max_elements")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("semilattice.tree_size_mean", "paths", "lower"),
    *(
        (f"semigroup.{fn}.{kind}", unit, "lower")
        for fn in ("evaluate", "multiply")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("semigroup.multiply.nonzero_frac", "frac", "higher"),
    ("semigroup.normal_form.self_ms", "ms", "lower"),
    *(
        (f"oracle.{fn}.{kind}", unit, "lower")
        for fn in ("string_normal_form", "fim_value")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("oracle.engine_over_oracle", "ratio", "lower"),
    *(
        (f"spectrum.{fn}.{kind}", unit, "lower")
        for fn in ("cylinder_intersect", "cylinder_difference")
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("spectrum.cylinder_difference.parts_mean", "cylinders", "lower"),
    ("spectrum.is_branch_extension.calls", "count", "lower"),
    ("spectrum.make_cylinder.self_ms", "ms", "lower"),
    ("algebra.mul.calls", "count", "lower"),
    ("algebra.mul.self_ms", "ms", "lower"),
    ("algebra.mul.zero_frac", "frac", "lower"),
    ("algebra.cylinder_idempotent.calls", "count", "lower"),
    ("algebra.cylinder_idempotent.self_ms", "ms", "lower"),
    ("algebra.enumerate_basis.self_ms", "ms", "lower"),
    ("algebra.enumerate_basis.elements", "count", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


def _observers(sg):
    """Per-result statistics: span name -> (metric, value of one result).
    A metric ending in `_mean` or `_frac` is averaged, any other is summed."""
    zero = sg.semigroup.ZERO
    return {
        "semilattice.lower_closure_unchecked": ("semilattice.tree_size_mean", lambda r: len(r.paths)),
        "semigroup.multiply": ("semigroup.multiply.nonzero_frac", lambda r: r is not zero),
        "spectrum.cylinder_difference": ("spectrum.cylinder_difference.parts_mean", len),
        "algebra.mul": ("algebra.mul.zero_frac", lambda r: r.is_zero()),
        "algebra.enumerate_basis": ("algebra.enumerate_basis.elements", len),
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.observed: dict[str, list[float]] = {}  # metric -> [sum, count]
        self.stack: list[list[int]] = []  # [start, child_ns, span id]
        self.next_id = 0
        self.op_id = -1
        self.recording = False
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0

    def _slot(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.index[name]

    def counter(self, name, fn):
        i, calls = self._slot(name), self.calls

        def counted(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name, fn, observe=None):
        i = self._slot(name)
        calls, self_ns, stack, spans = self.calls, self.self_ns, self.stack, self.spans
        if observe is not None:
            metric, value = observe
            acc = self.observed.setdefault(metric, [0.0, 0])

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter_ns(), 0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                calls[i] += 1
                self_ns[i] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.recording:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, i, frame[0], end, parent, self.op_id))
                    else:
                        self.dropped += 1
            if observe is not None:
                acc[0] += value(result)
                acc[1] += 1
            return result

        return traced

    def snapshot(self):
        """Running totals, for `pass_figures` to difference."""
        return (
            list(self.calls),
            list(self.self_ns),
            {k: tuple(v) for k, v in self.observed.items()},
            self.next_id,
        )

    def write(self, path, summary):
        """Gzipped JSON: the summary, per-name totals and the kept spans as
        [id, name, start_ns, end_ns, parent id, op id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "summary": summary,
            "totals": {
                n: {"calls": c, "self_ms": s / 1e6}
                for n, c, s in zip(self.names, self.calls, self.self_ns)
            },
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans_dropped": self.dropped,
            "spans": [[s[0], self.names[s[1]], *s[2:]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer, sg):
    """Wrap the layers' public functions; returns the undo list for
    `uninstall`."""
    observers = _observers(sg)
    wrapped = {}
    for layer in LAYERS:
        mod = getattr(sg, layer)
        for name, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or name.startswith("_"):
                continue
            full = f"{layer}.{name}"
            if layer == "paths":
                if name in COUNTED:
                    wrapped[fn] = tracer.counter(full, fn)
            else:
                wrapped[fn] = tracer.span(full, fn, observers.get(full))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "sgis" and not modname.startswith("sgis."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
                undo.append((mod, attr, value))
    cls = sg.algebra.AlgebraElement
    mul = cls.__dict__["__mul__"]
    setattr(cls, "__mul__", tracer.span("algebra.mul", mul, observers["algebra.mul"]))
    undo.append((cls, "__mul__", mul))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def pass_figures(tracer, before, after):
    """The span and counter part of PER_LAYER for the work between two
    snapshots."""
    calls = [b - a for a, b in zip(before[0], after[0])]
    self_ns = [b - a for a, b in zip(before[1], after[1])]
    out = {"trace.spans": after[3] - before[3]}
    for metric, _, _ in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_ms") and head in tracer.index:
            i = tracer.index[head]
            out[metric] = calls[i] if kind == "calls" else self_ns[i] / 1e6
        elif metric in after[2]:
            total, count = (b - a for a, b in zip(before[2].get(metric, (0, 0)), after[2][metric]))
            if metric.endswith(("_mean", "_frac")):
                out[metric] = total / count if count else 0.0
            else:
                out[metric] = total
    return out
