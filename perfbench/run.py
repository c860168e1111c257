"""Benchmark for inforest: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Workloads: ``exact``, ``float_verify``, ``routes`` and ``cli`` (see
``perfbench/README.md``). The load is one closed-loop client: a single
worker process runs one op at a time (for ``cli``, one ``python -m inforest``
process at a time) and checks every output against a reference outside the
timed region. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` the workload runs twice, without
and with spans around the calls into each inforest layer, and the JSON
object holds the per-layer metrics and the tracing overhead. The lines
before it state the machine and the same metrics for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 4  # extra worker starts that stop before the first op
TIME_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # worker.MIN_OPS is one more, so every run has a tail

WORKLOADS = ("exact", "float_verify", "routes", "cli")
END_TO_END = ("ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")
CLI_COMMANDS = (
    "gen", "forest", "proximity", "enumerate", "bottleneck", "decompose",
    "json", "verify6", "verify8", "routes",
)
PER_LAYER = (
    *spans_mod.LAYER_METRICS,
    "oracle.acyclic_ratio",
    "forest.residual_max",
    "routes.gap_ratio",
    "cli.startup_s",
    *(f"cli.{command}_s" for command in CLI_COMMANDS),
    "cli.stdout_bytes",
    "trace.overhead_frac",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}"] = size
    return facts


def run_worker(args, work: Path, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, and return its result with the
    set-up time measured from just before the process was started."""
    result_file = Path(tempfile.mkstemp(prefix="result-", suffix=".json", dir=work)[1])
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--work", str(work), "--result", str(result_file),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.monotonic()
    # In its own process group, so a timeout can stop the worker's CLI children too.
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s limit") from None
        raise
    if process.returncode != 0:
        raise BenchError(f"worker exited with {process.returncode}:\n{stderr.strip()}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["setup_s"] = result["first_op_at"] - started
    return result


def latency_metrics(result: dict) -> dict:
    """Throughput and latency percentiles, with each op's time scaled to
    the reference host speed (see ``worker.CALIBRATION``)."""
    seconds = sorted(op["seconds"] * op["scale"] for op in result["ops"])
    count = len(seconds)
    failed = sum(1 for op in result["ops"] if op["error"])
    return {
        "ops_per_s": count / sum(seconds),
        "op_p50_s": statistics.median(seconds),
        # The highest percentile with TAIL_BEYOND samples above it.
        "op_tail_s": seconds[count - TAIL_BEYOND - 1],
        "tail_pct": 100.0 * (count - TAIL_BEYOND) / count,
        "ops": count,
        "failed": failed,
    }


def per_layer_metrics(result: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and each span name's share of the
    timed op wall time."""
    spans = json.loads(Path(result["spans_file"]).read_text(encoding="utf-8"))
    cycles, cycle_len, ops = result["cycles"], result["cycle_len"], result["ops"]
    metrics = spans_mod.layer_metrics(spans, cycles, cycle_len)
    observed = [op["observed"] for op in ops]
    metrics["forest.residual_max"] = (max((o.get("residual", 0.0) for o in observed), default=0.0), "abs")
    metrics["routes.gap_ratio"] = (max((o.get("gap_ratio", 0.0) for o in observed), default=0.0), "ratio")
    startup = [op["seconds"] for op in ops if op["label"] == "version"]
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    for command in CLI_COMMANDS:
        indices = {index for index, op in enumerate(ops) if op["label"] == command}
        metrics[f"cli.{command}_s"] = (spans_mod.median_span(spans, "cli.run", indices), "s")
    first_cycle = observed[:cycle_len]
    metrics["cli.stdout_bytes"] = (sum(o.get("stdout_bytes", 0) for o in first_cycle), "bytes")
    traced_rate = latency_metrics(result)["ops_per_s"]
    untraced_rate = latency_metrics(untraced)["ops_per_s"]
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    return metrics, spans_mod.layer_shares(spans, result["timed_s"])


def describe_failures(results) -> list[str]:
    seen: dict[str, list] = {}
    for result in results:
        for op in result["ops"]:
            if op["error"]:
                entry = seen.setdefault(op["label"], [0, op["error"]])
                entry[0] += 1
    return [f"failed {label} x{count}: {error}" for label, (count, error) in seen.items()]


def measure(args, work: Path) -> tuple[list[str], dict, list[dict]]:
    deadline = time.monotonic() + TIME_LIMIT_S
    lines = []
    if not args.trace:
        starts = [run_worker(args, work, 0, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        result = run_worker(args, work, 0, deadline)
        setups = [start["setup_s"] * start["speed_scale"] for start in (*starts, result)]
        stats = latency_metrics(result)
        values = {
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_s": (stats["op_p50_s"], "s"),
            "op_tail_s": (stats["op_tail_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
        notes = {
            "op_tail_s": f"p{stats['tail_pct']:.1f} of {stats['ops']} ops, {TAIL_BEYOND} beyond",
            "setup_s": f"median of {len(setups)} set-ups",
        }
        lines.append(
            f"ops={stats['ops']} cycles={result['cycles']} timed_s={result['timed_s']:.3f} "
            f"speed_scale={result['speed_scale']:.4f} (median; times below are scaled wall times)"
        )
        for name in END_TO_END:
            value, unit = values[name]
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name:<14} {value:.6g} {unit}{note}")
        lines.append(f"{'failed_frac':<14} {stats['failed'] / stats['ops']:.6g} ratio  ({stats['failed']} of {stats['ops']} ops)")
        return lines, values, [result]
    untraced = run_worker(args, work, 0, deadline)
    result = run_worker(args, work, 1, deadline)
    metrics, shares = per_layer_metrics(result, untraced)
    lines.append(
        f"untraced ops={len(untraced['ops'])} traced ops={len(result['ops'])} "
        f"cycles={result['cycles']} timed_s={result['timed_s']:.3f}; times are per cycle"
    )
    values = {name: metrics[name] for name in PER_LAYER}
    for name, (value, unit) in values.items():
        lines.append(f"{name:<24} {value:.6g} {unit}")
    lines.append("self-time shares of timed op wall time: " + ", ".join(
        f"{name} {share:.1%}" for name, share in shares.items()
    ))
    return lines, values, [untraced, result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "inforest" / "__init__.py").is_file():
        print(f"error: no inforest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        lines, values, results = measure(args, work)
        if args.trace:
            spans_file = Path(results[-1]["spans_file"])
            kept = OUT / f"spans-{args.workload}.json"
            spans_file.replace(kept)
            lines.append(f"spans written to {kept.relative_to(ROOT)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(result["ops"]) for result in results)
    failed = sum(1 for result in results for op in result["ops"] if op["error"])
    facts = machine_facts()
    print("machine " + " ".join(f"{key}={value!r}" if key == "cpu" else f"{key}={value}" for key, value in facts.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines + describe_failures(results):
        print(line)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
