"""The benchmark's tracer finds every name it patches and restores it,
and reads its counts from the library's results.

``perfbench/spans.py`` wraps library functions where their callers look
them up, and its observers read what each result reveals. A refactor that
moves or drops such a name, or a part of a result an observer reads, would
otherwise show only when a traced benchmark run fails.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import pytest

from inforest import (
    EXACT,
    FLOAT,
    Matrix,
    forest_matrices,
    geometric_series,
    random_graph,
    route_matrix,
    step_matrix,
    summarize,
    verify_all_triples,
)
from tests.helpers import make_path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_point():
    spans = _load_spans()
    points = [(attribute, places) for _, attribute, places, _ in spans.PATCH_POINTS]
    points += [(attribute, places) for _, attribute, places in spans.GENERATOR_POINTS]
    originals = {
        (place, attribute): getattr(spans._owner(place), attribute)
        for attribute, places in points
        for place in places
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (place, attribute), original in originals.items():
            patched = getattr(spans._owner(place), attribute)
            assert patched.__wrapped__ is original, f"{place}.{attribute} not wrapped"
    finally:
        tracer.uninstall()
    for (place, attribute), original in originals.items():
        assert getattr(spans._owner(place), attribute) is original, f"{place}.{attribute} not restored"


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_tracer_reads_its_counts_from_the_library_results(mode):
    spans = _load_spans()
    graph = random_graph(6, 1)
    forests = forest_matrices(graph, mode)
    attrs = spans._forest_attrs((graph, mode), {}, forests)
    assert math.isclose(attrs["log10_f"], math.log10(forests.total_weight))
    if mode == EXACT:
        entries = [v for row in forests.matrix.to_lists() for v in row]
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in entries)
        assert attrs["bits"] == bits
    else:
        assert "bits" not in attrs
    result = verify_all_triples(graph, forests)
    attrs = spans._verify_attrs((graph, forests), {}, result)
    assert attrs == {"triples": 6**3, "reports": 6**3, "inconsistent": 0}
    series = geometric_series(step_matrix(graph, mode=mode), 1e-3)
    assert spans._series_attrs((), {}, series) == {"terms": series.terms_used}
    routes = route_matrix(graph, mode=mode)
    assert spans._route_attrs((graph,), {}, routes) == {"tail_bound": float(routes.tail_bound)}


def test_tracer_counts_the_inconsistent_triples_of_a_float_verify():
    graph = make_path()
    forests = forest_matrices(graph, FLOAT)
    rows = forests.matrix.to_lists()
    rows[0][1] += 100  # breaks the equality of the separated triple (0, 1, 2)
    result = verify_all_triples(graph, replace(forests, matrix=Matrix(rows, FLOAT)))
    attrs = _load_spans()._verify_attrs((graph,), {}, result)
    assert attrs["reports"] == graph.n**3
    assert attrs["inconsistent"] == summarize(result).inconsistent > 0
