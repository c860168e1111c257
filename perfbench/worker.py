"""One workload process: make the seeded inputs, run ops in a closed loop,
check every output, and write the results as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. The process records
the monotonic clock just before its first op, so the parent can measure
set-up from process start. Ops run in whole cycles over a fixed list of
slots, and each op reads a seeded graph of its own. The number of cycles
depends only on ``--seconds`` and the workload, never on how fast the ops
ran, so two commits measured with the same settings see the same number of
ops and the same tail percentile. Each op's time comes with a speed scale
from the calibrations timed around it (see ``CALIBRATION``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import inforest.bottleneck
import inforest.forest
import inforest.io
import inforest.routes
from inforest.generators import random_graph
from inforest.graph import MultiDigraph
from inforest.io import format_graph, format_weight
from inforest.matrix import EXACT, FLOAT
from inforest.oracle import choice_count

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
MIN_OPS = 11  # 10 samples beyond the tail percentile, plus the tail
# Sizes of one cycle's ops. Each op of a run gets a graph of its own, so a
# run's medians average over many seeded graphs. The mixes put the median
# and the tail percentile inside a run of ops of one size rather than on
# the edge between two sizes, where they would jump between runs.
EXACT_SIZES = (12, 20, 20, 20, 30)
FLOAT_SIZES = (40, 40, 50)  # far below n=90, where products of F entries overflow
ROUTE_SIZES = (12, 16, 16, 16, 20)
# Timed seconds of one cycle at the reference speed (see CALIBRATION), on
# 2 vCPUs of an Intel Xeon with Python 3.11, rounded; a run does --seconds
# worth of cycles at these rates.
NOMINAL_CYCLE_S = {"exact": 2.6, "float_verify": 2.6, "routes": 3.7, "cli": 5.4}
CLI_TIMEOUT_S = 120
SETUP_CALIBRATIONS = 8


class Item(NamedTuple):
    """One slot of the cycle: ``run(cycle)`` is the timed op, ``check``
    validates its output outside the timed region and returns observables."""

    label: str
    run: Callable[[int], object]
    check: Callable[[object], dict]


def seeded_graph(rng: random.Random, n: int, accept=None):
    """First ``random_graph(n, s)`` over seeds ``s`` drawn from ``rng`` that
    ``accept`` admits. Admission keeps an input's amount of work within a
    fixed band, so runs with different seeds do comparable work."""
    while True:
        graph = random_graph(n, rng.randrange(2**31))
        if accept is None or accept(graph):
            return graph


def write_graph(path: Path, graph) -> Path:
    path.write_text(format_graph(graph), encoding="utf-8")
    return path


def _slot_files(work: Path, rng: random.Random, name: str, n: int, cycles: int, accept=None) -> list[Path]:
    """One seeded graph file per cycle for one slot of the cycle."""
    return [write_graph(work / f"{name}-{c}.graph", seeded_graph(rng, n, accept)) for c in range(cycles)]


def _parse(paths: list[Path], cycle: int):
    text = paths[cycle].read_text(encoding="utf-8")
    return inforest.io.parse_graph(text).graph


# --- workloads ---------------------------------------------------------------
# Each ``build_*`` function writes the inputs of ``cycles`` cycles under
# ``work`` and returns the cycle.


def _verify_items(work: Path, rng: random.Random, sizes, cycles: int, mode: str, check) -> list[Item]:
    items = []
    for slot, n in enumerate(sizes):
        paths = _slot_files(work, rng, f"{mode}{slot}", n, cycles)

        def run(cycle, paths=paths):
            graph = _parse(paths, cycle)
            forests = inforest.forest.forest_matrices(graph, mode)
            reports = inforest.bottleneck.verify_all_triples(graph, forests)
            return graph, forests, inforest.bottleneck.summarize(reports)

        items.append(Item(f"n{n}", run, lambda out: check(*out)))
    return items


def build_exact(work: Path, rng: random.Random, cycles: int, tracer) -> list[Item]:
    return _verify_items(work, rng, EXACT_SIZES, cycles, EXACT, checks.check_exact)


def build_float_verify(work: Path, rng: random.Random, cycles: int, tracer) -> list[Item]:
    return _verify_items(work, rng, FLOAT_SIZES, cycles, FLOAT, checks.check_float)


def _typical_out_weight(graph) -> bool:
    # The series needs about 55 * max out-weight terms; admit the middle of
    # its distribution over seeds (about 1.05 n for weights 1:5).
    return abs(float(graph.max_out_weight()) / graph.n - 1.05) <= 0.03


def build_routes(work: Path, rng: random.Random, cycles: int, tracer) -> list[Item]:
    def check(out):
        graph, result = out
        return checks.check_routes(result, inforest.forest.forest_matrices(graph, FLOAT))

    items = []
    for slot, n in enumerate(ROUTE_SIZES):
        paths = _slot_files(work, rng, f"routes{slot}", n, cycles, _typical_out_weight)

        def run(cycle, paths=paths):
            graph = _parse(paths, cycle)
            return graph, inforest.routes.route_matrix(graph)

        items.append(Item(f"n{n}", run, check))
    return items


def relabelled(graph, rng: random.Random):
    """``graph`` with its vertices renumbered by a seeded permutation."""
    order = list(range(graph.n))
    rng.shuffle(order)
    return MultiDigraph(graph.n, [(order[a.tail], order[a.head], a.weight) for a in graph.arcs])


def _choices_between(lo: int, hi: int):
    return lambda graph: lo <= choice_count(graph) <= hi


def build_cli(work: Path, rng: random.Random, cycles: int, tracer) -> list[Item]:
    g6 = seeded_graph(rng, 6, _choices_between(700, 1500))
    g7 = seeded_graph(rng, 7)
    # The two slow commands take most of a cycle, and their cost varies by
    # tens of percent between graphs of one size. Each run gets a seeded
    # relabelling of one fixed graph instead, which costs the same work:
    # verify at n=8 on the 25,920-vector graph of seed 1, and exact routes at
    # n=6 on the graph of seed 1, whose largest out-weight is 8.
    g8 = relabelled(random_graph(8, 1), rng)
    g6r = relabelled(random_graph(6, 1), rng)
    gen_seed = rng.randrange(2**31)
    f6, f7, f8, f6r = (write_graph(work / f"cli{name}.graph", g) for name, g in (("6", g6), ("7", g7), ("8", g8), ("6r", g6r)))
    json7 = work / "cli7.json"
    arcs = [[a.tail + 1, a.head + 1, format_weight(a.weight)] for a in g7.arcs]
    json7.write_text(json.dumps({"n": g7.n, "directed": True, "arcs": arcs}), encoding="utf-8")
    triple = ["-i", "1", "-j", "2", "-k", "3"]
    commands = [
        ("version", "version", ["--version"], None),
        ("gen", "gen", ["gen", "random", "8", "--seed", str(gen_seed)], random_graph(8, gen_seed)),
        ("forest", "forest", ["forest", "--input", str(f7)], g7),
        ("proximity", "proximity", ["proximity", "--input", str(f7)], g7),
        ("enumerate", "enumerate", ["enumerate", "--input", str(f6)], g6),
        ("bottleneck", "bottleneck", ["bottleneck", "--input", str(f7), *triple], g7),
        ("decompose", "decompose", ["decompose", "--input", str(f7), *triple], g7),
        ("json", "json", ["forest", "--input", str(json7), "--format", "json"], g7),
        ("verify6", "verify", ["verify", "--input", str(f6)], g6),
        ("verify8", "verify", ["verify", "--input", str(f8)], g8),
        ("routes", "routes", ["routes", "--input", str(f6r)], g6r),
    ]
    items = []
    for label, kind, argv, graph in commands:
        spans_file = work / f"spans-{label}.json"
        if tracer is None:
            command = [sys.executable, "-m", "inforest", *argv]
        else:
            command = [sys.executable, str(HERE / "launch.py"), str(spans_file), *argv]
        reference = {}

        def run(cycle, command=command, spans_file=spans_file):
            done = subprocess.run(command, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            if tracer is not None and spans_file.exists():
                tracer.absorb(json.loads(spans_file.read_text(encoding="utf-8")))
                spans_file.unlink()
            return done.returncode, done.stdout

        def check(out, kind=kind, graph=graph, reference=reference):
            if not reference:
                reference["value"] = checks.cli_reference(kind, graph)
            return checks.check_cli(kind, out[0], out[1], reference["value"])

        items.append(Item(label, run, check))
    return items


WORKLOADS = {
    "exact": build_exact,
    "float_verify": build_float_verify,
    "routes": build_routes,
    "cli": build_cli,
}


CYCLE_LEN = {"exact": len(EXACT_SIZES), "float_verify": len(FLOAT_SIZES), "routes": len(ROUTE_SIZES), "cli": 11}


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles for a run of about ``seconds``, and at least ``MIN_OPS`` ops."""
    return max(math.ceil(MIN_OPS / CYCLE_LEN[workload]), round(seconds / NOMINAL_CYCLE_S[workload]))


def calibrate_compute() -> float:
    """Seconds taken by a fixed mix of int, dict, ``Fraction`` and float
    work, the kinds of work inforest's ops do in-process."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    row = [0.5 + i for i in range(40)]
    for _ in range(300):
        total = sum(a * b for a, b in zip(row, row))
    return time.perf_counter() - start


def calibrate_cli() -> float:
    """Seconds to start and stop a bare interpreter, which imports nothing
    of inforest, plus eight ``calibrate_compute()``: the short CLI ops are
    mostly interpreter start, the slow ones mostly in-process work."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return time.perf_counter() - start + sum(calibrate_compute() for _ in range(8))


# The host's speed changes by tens of percent from one second to the next.
# So a run times a calibration before each op and after the last, and
# scales each op's time by the calibration's median on the reference
# machine over the mean of the two samples around the op. Per workload: the
# calibration and that reference median.
CALIBRATION = {
    "exact": (calibrate_compute, 0.0085),
    "float_verify": (calibrate_compute, 0.0085),
    "routes": (calibrate_compute, 0.0085),
    "cli": (calibrate_cli, 0.13),
}


def measure(items: list[Item], cycles: int, calibrate, reference: float, tracer=None) -> dict:
    """Run ``cycles`` cycles of ``items``, checking each output outside the
    timed region, and give each op its speed scale."""
    ops = []
    calibrations = []
    timed = 0.0
    for cycle in range(cycles):
        for item in items:
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.op = len(ops)
                tracer.active = True
            error = None
            start = time.perf_counter()
            try:
                out = item.run(cycle)
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            observed = {}
            if error is None:
                try:
                    observed = item.check(out)
                except Exception as exc:  # wrong or unparsable output
                    error = f"{type(exc).__name__}: {exc}"
            out = None
            timed += elapsed
            ops.append({"label": item.label, "seconds": elapsed, "error": error, "observed": observed})
    calibrations.append(calibrate())
    # Op i ran between samples i and i + 1.
    for op, before, after in zip(ops, calibrations, calibrations[1:]):
        op["scale"] = 2 * reference / (before + after)
    return {
        "ops": ops,
        "cycles": cycles,
        "cycle_len": len(items),
        "timed_s": timed,
        "speed_scale": statistics.median(op["scale"] for op in ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="directory for inputs and spans")
    parser.add_argument("--result", type=Path, required=True, help="where to write the JSON result")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first op")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    rng = random.Random(f"{args.workload}:{args.seed}")
    cycles = cycle_count(args.workload, args.seconds)
    items = WORKLOADS[args.workload](args.work, rng, cycles, tracer)
    assert len(items) == CYCLE_LEN[args.workload]
    first_op_at = time.monotonic()
    result = {"first_op_at": first_op_at}
    calibrate, reference = CALIBRATION[args.workload]
    if args.setup_only:
        result["speed_scale"] = reference / statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    else:
        if tracer is not None:
            tracer.install()
        result.update(measure(items, cycles, calibrate, reference, tracer))
        if tracer is not None:
            tracer.uninstall()
            result["spans_file"] = str(args.work / "spans.json")
            tracer.dump(result["spans_file"])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # The cli workload's work happens in its child processes.
        result["peak_rss_kb"] = children if args.workload == "cli" else own
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
