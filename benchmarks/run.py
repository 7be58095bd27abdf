"""Benchmark of the one-cube census: four workloads, each in its own process.

    python3 benchmarks/run.py --workload census-full --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up `SETUP_REPEATS` times (import of the package and of the
workload module, `reference_table()` validation, loading the inputs), then
repeats whole passes over the workload's items until `--seconds` have passed
and at least the workload's minimum number of passes is done, then checks the
outputs.  With `--trace 1` it traces every second pass and reports the
per-layer metrics of the traced passes, and the tracing overhead against the
untraced ones, instead of end-to-end metrics.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import paths

WORKLOAD_NAMES = ("census-full", "raw-sweep", "homology-three-ways", "certify-nonorientable")
SETUP_REPEATS = 7
TRACE_MIN_PASSES = 4   # two untraced and two traced, alternating
TRACE_DIR = paths.ROOT / ".bench_out"


@dataclass
class Pass:
    wall: float
    cpu: float
    item_ms: list[float]   # process CPU time of each item
    failed_items: set[int] = field(default_factory=set)   # raised, or differ from pass 1
    layers: dict | None = None


def percentile(values, p: int) -> float:
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def set_up(name: str, seed: int):
    """One timed set-up from a fresh import; returns (seconds, workloads
    module, items).  Standard-library modules stay imported."""
    for module in list(sys.modules):
        if module.split(".")[0] in ("cubecensus", "workloads"):
            del sys.modules[module]
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workloads.census.reference_table()
    items = workloads.WORKLOADS[name].load(seed)
    return time.perf_counter() - start, workloads, items


def run_passes(workload, items, seconds: float, min_passes: int, tracer=None):
    """Whole passes until `seconds` have passed and `min_passes` are done.
    With a tracer, every second pass is traced.  Returns the passes and the
    outputs of the first one."""
    passes: list[Pass] = []
    first = first_summaries = None
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        gc.collect()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        outputs, item_ms = [], []
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for item in items:
                t0 = time.process_time()
                try:
                    out = workload.op(item)
                except Exception:  # one failed operation must not end the run
                    traceback.print_exc()
                    out = None
                item_ms.append((time.process_time() - t0) * 1e3)
                outputs.append(out)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        summaries = [None if out is None else workload.summary(out) for out in outputs]
        if first is None:
            first, first_summaries = outputs, summaries
        failed = {i for i, (s, s1) in enumerate(zip(summaries, first_summaries))
                  if s is None or s != s1}
        passes.append(Pass(wall, cpu, item_ms, failed,
                           tracer.pass_metrics() if traced else None))
        del outputs
    return passes, first


def end_to_end_metrics(workload, passes, setups) -> dict:
    items = [ms for p in passes for ms in p.item_ms]
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "item_p50_ms": (statistics.median(items), "ms"),
        "item_tail_ms": (percentile(items, workload.tail_percentile), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer_module, passes) -> dict:
    traced = [p for p in passes if p.layers is not None]
    metrics = {name: (statistics.median(p.layers[name] for p in traced), unit)
               for name, unit, _ in tracer_module.LAYER_METRICS}
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in passes if p.layers is None)
    metrics["trace.overhead_pct"] = (100 * (traced_wall / untraced_wall - 1), "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, workloads, items = set_up(name, seed)
        setups.append(elapsed)
    if not paths.package_in_checkout():
        raise RuntimeError(f"cubecensus was imported from outside {paths.SRC}")
    workload = workloads.WORKLOADS[name]
    if trace:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
        passes, first = run_passes(workload, items, seconds, TRACE_MIN_PASSES, tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        spans = tracer.write_spans(TRACE_DIR / f"{name}-seed{seed}.spans.jsonl.gz")
        print(f"{name}: wrote {spans} spans of the last traced pass to {TRACE_DIR.name}/",
              file=sys.stderr)
        metrics = layer_metrics(tracer_module, passes)
    else:
        passes, first = run_passes(workload, items, seconds, workload.min_passes)
        metrics = end_to_end_metrics(workload, passes, setups)
    check = workload.check(items, first)
    for problem in check.problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    nondeterministic = any(first[i] is not None for p in passes for i in p.failed_items)
    return {
        "correct": check.ok and not nondeterministic,
        "attempted": len(items) * len(passes),
        "failed": sum(len(p.failed_items | check.bad_items) for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one-cube census benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not paths.package_in_checkout():
        print(f"cubecensus sources not found under {paths.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
