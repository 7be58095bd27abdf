"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and spread (quartile distance over median).

    python3 benchmarks/spread.py --runs 10 --first-seed 100 \
        --out .bench_out/set1.json [--workload raw-sweep ...]
    python3 benchmarks/spread.py --compare .bench_out/set1.json .bench_out/set2.json

Runs go one after the other, one process each, with `run_seconds` from
BENCHMARK.json.  `--compare` prints how far the second set's medians lie
from the first's, as a share of the first, next to each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import paths

CONFIG = json.loads((paths.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workloads, runs: int, first_seed: int) -> dict:
    results = {}
    for name in workloads:
        results[name] = []
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, *CONFIG["command"][1:], "--workload", name, "--seed", str(seed),
                 "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"],
                cwd=paths.ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    return results


def report(results) -> None:
    for name, runs in results.items():
        for metric, bound in BOUNDS.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            print(f"{name:22s} {metric:13s} median {statistics.median(values):10.4f} "
                  f"spread {spread(values):6.3f} (bound {bound})")


def compare(first, second) -> None:
    for name in first:
        for metric, bound in BOUNDS.items():
            a = statistics.median(r["metrics"][metric]["value"] for r in first[name])
            b = statistics.median(r["metrics"][metric]["value"] for r in second[name])
            print(f"{name:22s} {metric:13s} {a:10.4f} -> {b:10.4f} "
                  f"change {(b - a) / a:+.3f} (bound {bound})")
        shares = [{r["failed"] / r["attempted"] for r in s[name]} for s in (first, second)]
        print(f"{name:22s} failed share per run: {sorted(shares[0])} / {sorted(shares[1])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run-to-run spread of the benchmark")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in CONFIG["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*(json.loads(p.read_text(encoding="utf-8")) for p in args.compare))
        return 0
    results = collect(args.workload or [w["name"] for w in CONFIG["workloads"]],
                      args.runs, args.first_seed)
    if args.out:
        args.out.parent.mkdir(exist_ok=True)
        args.out.write_text(json.dumps(results), encoding="utf-8")
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
