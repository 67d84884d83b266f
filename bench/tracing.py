"""Per-layer tracing installed from the benchmark's own files.

A traced run replaces the public names that each calling module looks up
(qhgerm.engine.analyze_germ, qhgerm.engine.find_roots, BivarPoly.substitute,
...) with wrappers that record spans, so nested calls are seen. Spans are
kept in memory as [name, start, end, parent, op] and written out at the end.
GaussianRational.__mul__ runs hundreds of times per op, so it is counted and
timed in aggregate instead of recorded as spans; its time stays inside the
self time of whichever span called it.

Untraced runs import nothing from here.
"""

from __future__ import annotations

import json
from time import perf_counter

# (module, attribute, span name): every module that looks the name up.
_FUNCTIONS = (
    ("qhgerm.polyio", "parse_poly", "polyio.parse_poly"),
    ("qhgerm.engine", "parse_poly", "polyio.parse_poly"),
    ("qhgerm.cli", "parse_poly", "polyio.parse_poly"),
    ("qhgerm.structure", "analyze_germ", "structure.analyze_germ"),
    ("qhgerm.engine", "analyze_germ", "structure.analyze_germ"),
    ("qhgerm.cli", "analyze_germ", "structure.analyze_germ"),
    ("qhgerm.engine", "linear_multiset_match", "engine.multiset_match"),
    ("qhgerm.engine", "affine_multiset_match", "engine.multiset_match"),
    ("qhgerm.engine", "decide_equivalence", "engine.decide_equivalence"),
    ("qhgerm.engine", "build_witness", "engine.build_witness"),
    ("qhgerm.engine", "verify_witness", "engine.verify_witness"),
    ("qhgerm.engine", "find_roots", "numeric.find_roots"),
    ("qhgerm.engine", "cluster_roots", "numeric.cluster_roots"),
    ("qhgerm.engine", "numeric_match", "numeric.numeric_match"),
    ("qhgerm.engine", "eval_bivar", "numeric.eval_bivar"),
    ("qhgerm.engine", "nth_root", "numeric.nth_root"),
)

# (module, class, method, span name)
_METHODS = (
    ("qhgerm.polyio", "BivarPoly", "substitute", "polyio.substitute"),
    ("qhgerm.exact", "UniPoly", "squarefree_parts", "exact.squarefree_parts"),
)

# Span the benchmark records around its in-process call into cli.run.
CLI_BATCH_SPAN = "cli.decide_batch"

# Per-layer metrics in the order BENCHMARK.json lists them.
METRIC_UNITS = {
    "polyio.parse_poly.ms_per_op": "ms",
    "polyio.substitute.ms_per_op": "ms",
    "structure.analyze_germ.calls_per_op": "count",
    "structure.analyze_germ.ms_per_op": "ms",
    "exact.gq_mul.calls_per_op": "count",
    "exact.gq_mul.us_per_call": "us",
    "exact.squarefree_parts.ms_per_op": "ms",
    "engine.multiset_match.ms_per_op": "ms",
    "engine.decide_equivalence.self_ms_per_op": "ms",
    "engine.build_witness.self_ms_per_op": "ms",
    "engine.verify_witness.self_ms_per_op": "ms",
    "engine.witness_radical.count": "count",
    "engine.precision_escalations.count": "count",
    "numeric.find_roots.ms_per_op": "ms",
    "numeric.find_roots.calls_per_op": "count",
    "numeric.cluster_roots.ms_per_op": "ms",
    "numeric.numeric_match.ms_per_op": "ms",
    "numeric.eval_bivar.ms_per_op": "ms",
    "numeric.nth_root.calls_per_op": "count",
    "cli.startup_ms": "ms",
    "cli.decide_batch.self_ms_per_record": "ms",
}


class Tracer:
    """Span recorder; install() patches qhgerm, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.mul_calls = 0
        self.mul_seconds = 0.0
        self.find_roots_precisions = []
        self._undo = []

    def wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name == "numeric.find_roots":
                fn = self._recording_precision(fn)
            self._patch(module, attr, self.wrap(name, fn))
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        exact = importlib.import_module("qhgerm.exact")
        cls = exact.GaussianRational
        original = cls.__dict__["__mul__"]
        tracer = self

        def mul(a, b):
            t0 = perf_counter()
            out = original(a, b)
            tracer.mul_seconds += perf_counter() - t0
            tracer.mul_calls += 1
            return out

        self._patch(cls, "__mul__", mul)
        self._patch(cls, "__rmul__", mul)

    def _recording_precision(self, fn):
        tracer = self

        def find_roots(poly, precision=128):
            tracer.find_roots_precisions.append(precision)
            return fn(poly, precision)

        return find_roots

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}))
                handle.write("\n")


def layer_metrics(tracer, ops, records, requested_precision, radical_witnesses,
                  startup_ms):
    """Per-layer metrics of a traced run of `ops` ops over `records` records.

    Time of a name counts only its outermost spans, so a matcher that calls
    itself is not counted twice. Self time is a span minus its direct
    children; gq_mul time is not a span and stays in the self time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls = {}, {}, {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] = total.get(name, 0.0) + dur

    def ms_per_op(name):
        return 1000.0 * total.get(name, 0.0) / ops

    def self_ms_per_op(name):
        return 1000.0 * self_time.get(name, 0.0) / ops

    values = {
        "polyio.parse_poly.ms_per_op": ms_per_op("polyio.parse_poly"),
        "polyio.substitute.ms_per_op": ms_per_op("polyio.substitute"),
        "structure.analyze_germ.calls_per_op": calls.get("structure.analyze_germ", 0) / ops,
        "structure.analyze_germ.ms_per_op": ms_per_op("structure.analyze_germ"),
        "exact.gq_mul.calls_per_op": tracer.mul_calls / ops,
        "exact.gq_mul.us_per_call": (1e6 * tracer.mul_seconds / tracer.mul_calls
                                     if tracer.mul_calls else 0.0),
        "exact.squarefree_parts.ms_per_op": ms_per_op("exact.squarefree_parts"),
        "engine.multiset_match.ms_per_op": ms_per_op("engine.multiset_match"),
        "engine.decide_equivalence.self_ms_per_op": self_ms_per_op("engine.decide_equivalence"),
        "engine.build_witness.self_ms_per_op": self_ms_per_op("engine.build_witness"),
        "engine.verify_witness.self_ms_per_op": self_ms_per_op("engine.verify_witness"),
        "engine.witness_radical.count": radical_witnesses,
        "engine.precision_escalations.count": sum(
            1 for prec in tracer.find_roots_precisions if prec > requested_precision),
        "numeric.find_roots.ms_per_op": ms_per_op("numeric.find_roots"),
        "numeric.find_roots.calls_per_op": calls.get("numeric.find_roots", 0) / ops,
        "numeric.cluster_roots.ms_per_op": ms_per_op("numeric.cluster_roots"),
        "numeric.numeric_match.ms_per_op": ms_per_op("numeric.numeric_match"),
        "numeric.eval_bivar.ms_per_op": ms_per_op("numeric.eval_bivar"),
        "numeric.nth_root.calls_per_op": calls.get("numeric.nth_root", 0) / ops,
        "cli.startup_ms": startup_ms,
        "cli.decide_batch.self_ms_per_record": (
            1000.0 * self_time.get(CLI_BATCH_SPAN, 0.0) / records if records else 0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRIC_UNITS.items()}
