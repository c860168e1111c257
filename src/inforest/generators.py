"""Deterministic graph generators for fixtures and test corpora.

Each passes its arcs to :class:`MultiDigraph` lazily, so a vertex count
beyond the graph's limit is refused before any arc is built."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParametersError
from .graph import MultiDigraph, Weight


def path_graph(n: int, weight: Weight = 1) -> MultiDigraph:
    """Directed path 0 -> 1 -> ... -> n-1 with a uniform arc weight."""
    return MultiDigraph(n, ((v, v + 1, weight) for v in range(n - 1)))


def cycle_graph(n: int, weight: Weight = 1) -> MultiDigraph:
    """Directed cycle through all vertices with a uniform arc weight."""
    return MultiDigraph(n, ((v, (v + 1) % n, weight) for v in range(n)))


def complete_graph(n: int, weight: Weight = 1) -> MultiDigraph:
    """All ordered pairs as arcs with a uniform weight."""
    return MultiDigraph(n, ((i, j, weight) for i in range(n) for j in range(n) if i != j))


def random_graph(n: int, seed: int, weight_range: tuple[int, int] = (1, 5)) -> MultiDigraph:
    """Seeded random digraph: each ordered pair becomes an arc with
    probability 1/2, weighted by a random fraction with numerator and
    denominator drawn uniformly from ``weight_range``."""
    lo, hi = weight_range
    if not (1 <= lo <= hi):
        raise BadParametersError(f"weight range must satisfy 1 <= lo <= hi, got {lo}:{hi}")
    rng = random.Random(seed)
    arcs = (
        (i, j, Fraction(rng.randint(lo, hi), rng.randint(lo, hi)))
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < 0.5
    )
    return MultiDigraph(n, arcs)
