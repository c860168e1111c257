"""The benchmark's tracer finds every name it patches and restores it.

``perfbench/spans.py`` wraps library functions where their callers look
them up. A refactor that moves or drops such a name would otherwise show
only when a traced benchmark run fails to start.
"""

import importlib.util
from pathlib import Path

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
