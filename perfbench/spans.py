"""Spans around calls into inforest's layers, recorded from outside the library.

``Tracer.install`` replaces each traced public function by a wrapper at the
place where its callers look it up (a module global or a class attribute),
so the library runs unchanged while every call records a span: name, start,
end, parent span and the operation it belongs to. Wrappers also record the
counts a layer's result reveals (bytes parsed, triples classified, series
terms, ...). Spans stay in memory until the run ends and are then written
out as JSON. ``layer_metrics`` turns the spans of one run into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from fractions import Fraction


def _log10(value) -> float:
    if isinstance(value, Fraction):
        return math.log10(value.numerator) - math.log10(value.denominator)
    return math.log10(value)


def _parse_attrs(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _forest_attrs(args, kwargs, result):
    attrs = {"log10_f": _log10(result.total_weight)}
    if result.mode == "exact":
        attrs["bits"] = max(
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for row in result.matrix.to_lists()
            for v in row
        )
    return attrs


def _verify_attrs(args, kwargs, result):
    n = args[0].n
    return {
        "triples": n**3,
        "reports": len(result),
        "inconsistent": sum(1 for report in result if not report.consistent),
    }


def _series_attrs(args, kwargs, result):
    return {"terms": result.terms_used}


def _route_attrs(args, kwargs, result):
    return {"tail_bound": float(result.tail_bound)}


# (span name, attribute, places callers look it up, result observer).
# A place is "module" or "module:Class".
PATCH_POINTS = (
    ("io.parse", "parse_graph", ("inforest.io", "inforest.cli"), _parse_attrs),
    ("graph.laplacian", "laplacian", ("inforest.graph:MultiDigraph",), None),
    ("graph.reachable", "reachable", ("inforest.graph:MultiDigraph",), None),
    ("matrix.invert", "invert", ("inforest.forest", "inforest.routes"), None),
    ("matrix.determinant", "determinant", ("inforest.forest",), None),
    ("matrix.matmul", "__matmul__", ("inforest.matrix:Matrix",), None),
    (
        "forest.solve",
        "forest_matrices",
        ("inforest.forest", "inforest.bottleneck", "inforest.cli"),
        _forest_attrs,
    ),
    (
        "bottleneck.verify",
        "verify_all_triples",
        ("inforest.bottleneck", "inforest.cli"),
        _verify_attrs,
    ),
    ("routes.series", "geometric_series", ("inforest.routes",), _series_attrs),
    ("routes.route_matrix", "route_matrix", ("inforest.routes", "inforest.cli"), _route_attrs),
)

# Generators: the span runs from the first item requested to exhaustion.
GENERATOR_POINTS = (
    ("oracle.enumerate", "enumerate_in_forests", ("inforest.oracle", "inforest.cli")),
)


def _owner(place: str):
    module_name, _, class_name = place.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans while ``active``; each span is
    ``[name, start, end, parent index or -1, op id, attrs or None]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, attribute, places, observe in PATCH_POINTS:
            self._patch(places, attribute, lambda f, name=name, observe=observe: self._wrap(name, f, observe))
        for name, attribute, places in GENERATOR_POINTS:
            self._patch(places, attribute, lambda f, name=name: self._wrap_generator(name, f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _patch(self, places, attribute, make) -> None:
        wrappers = {}
        for place in places:
            owner = _owner(place)
            original = getattr(owner, attribute)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, wrappers[id(original)])

    def _new_span(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        return span

    def call(self, name: str, function, *args, observe=None, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        if not self.active:
            return function(*args, **kwargs)
        span = self._new_span(name)
        self._stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span[5] = observe(args, kwargs, result)
        return result

    def _wrap(self, name, original, observe):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, observe=observe, **kwargs)

        traced.__wrapped__ = original
        return traced

    def _wrap_generator(self, name, original):
        def traced(graph, *args, **kwargs):
            if not self.active:
                yield from original(graph, *args, **kwargs)
                return
            # Not pushed on the parent stack: the consumer runs between items.
            span = self._new_span(name)
            span[1] = time.perf_counter()
            count = 0
            try:
                for item in original(graph, *args, **kwargs):
                    count += 1
                    yield item
            finally:
                span[2] = time.perf_counter()
                choices = importlib.import_module("inforest.oracle").choice_count(graph)
                span[5] = {"choice_vectors": choices, "forests": count}

        traced.__wrapped__ = original
        return traced

    def absorb(self, spans) -> None:
        """Append spans recorded by another process as part of the current op."""
        offset = len(self.spans)
        for name, start, end, parent, _, attrs in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op, attrs])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            result[span[3]] -= span[2] - span[1]
    return result


# Per-layer metric -> (span name, what to take, unit). Times are seconds
# per cycle; counts are taken over the first cycle, so they repeat exactly.
LAYER_METRICS = {
    "io.parse_s": ("io.parse", "time", "s"),
    "io.bytes_in": ("io.parse", "count:bytes", "bytes"),
    "graph.laplacian_s": ("graph.laplacian", "time", "s"),
    "graph.reachable_calls": ("graph.reachable", "calls", "count"),
    "graph.reachable_s": ("graph.reachable", "time", "s"),
    "matrix.invert_s": ("matrix.invert", "time", "s"),
    "matrix.determinant_s": ("matrix.determinant", "time", "s"),
    "matrix.entry_bits_max": ("forest.solve", "max:bits", "bits"),
    "matrix.matmul_calls": ("matrix.matmul", "calls", "count"),
    "matrix.matmul_s": ("matrix.matmul", "time", "s"),
    "forest.solve_s": ("forest.solve", "time", "s"),
    "forest.self_s": ("forest.solve", "self", "s"),
    "forest.log10_f": ("forest.solve", "max:log10_f", "log10"),
    "bottleneck.verify_s": ("bottleneck.verify", "time", "s"),
    "bottleneck.self_s": ("bottleneck.verify", "self", "s"),
    "bottleneck.triples": ("bottleneck.verify", "count:triples", "count"),
    "bottleneck.reports": ("bottleneck.verify", "count:reports", "count"),
    "bottleneck.inconsistent": ("bottleneck.verify", "count:inconsistent", "count"),
    "oracle.enumerate_s": ("oracle.enumerate", "time", "s"),
    "oracle.choice_vectors": ("oracle.enumerate", "count:choice_vectors", "count"),
    "oracle.forests": ("oracle.enumerate", "count:forests", "count"),
    "routes.series_s": ("routes.series", "time", "s"),
    "routes.series_terms": ("routes.series", "count:terms", "count"),
    "routes.tail_bound": ("routes.route_matrix", "max:tail_bound", "abs"),
}


def layer_metrics(spans, cycles: int, cycle_len: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as ``{name: (value, unit)}``.

    Layers the workload never reaches read 0.
    """
    selfs = self_times(spans)
    metrics = {}
    for metric, (name, take, unit) in LAYER_METRICS.items():
        chosen = [(span, own) for span, own in zip(spans, selfs) if span[0] == name]
        first = [span for span, _ in chosen if span[4] < cycle_len]
        kind, _, key = take.partition(":")
        if kind == "time":
            value = sum(span[2] - span[1] for span, _ in chosen) / cycles
        elif kind == "self":
            value = sum(own for _, own in chosen) / cycles
        elif kind == "calls":
            value = len(first)
        elif kind == "count":
            value = sum(span[5][key] for span in first)
        else:
            value = max((span[5][key] for span, _ in chosen if key in span[5]), default=0)
        metrics[metric] = (value, unit)
    choices = metrics["oracle.choice_vectors"][0]
    metrics["oracle.acyclic_ratio"] = (
        metrics["oracle.forests"][0] / choices if choices else 0.0,
        "ratio",
    )
    return metrics


def layer_shares(spans, op_seconds: float) -> dict[str, float]:
    """Share of timed op wall time spent in each span name's self time; the
    rest, outside every span, is reported as ``outside``."""
    shares: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        shares[span[0]] = shares.get(span[0], 0.0) + own
    total = sum(shares.values())
    result = {name: value / op_seconds for name, value in sorted(shares.items())}
    result["outside"] = (op_seconds - total) / op_seconds
    return result


def median_span(spans, name: str, ops) -> float:
    """Median duration of the spans named ``name`` in the given ops."""
    durations = [span[2] - span[1] for span in spans if span[0] == name and span[4] in ops]
    return statistics.median(durations) if durations else 0.0
