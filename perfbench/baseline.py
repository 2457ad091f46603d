"""Run the benchmark over several seeds and record medians, quartiles and
spreads with the environment they were measured in.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Every workload runs untraced once per seed, the workloads taking turns,
and once traced with the first seed, each run as long as BENCHMARK.json's
``run_seconds``.  The spread of a metric is the distance
between the first and third quartile of its values as a share of their
median, the figure the bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import run as bench_run

ROOT = bench_run.ROOT


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    code, lines = bench_run.invoke(workload, seed, seconds, trace)
    if code != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {code}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def environment() -> dict:
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": git.stdout.strip() if git.returncode == 0 else None,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--out", help="write the JSON here; without it, only print")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    result = {"environment": environment(), "seconds": seconds, "seeds": seeds}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    # seeds outside, workloads inside, so that slow spells of a shared
    # machine fall on every workload rather than on one
    for seed in seeds:
        for workload in workloads:
            one = run(workload, seed, seconds, 0)
            print(workload, seed, {k: round(m["value"], 4) for k, m in one["metrics"].items()},
                  flush=True)
            for name, m in one["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
    for workload in workloads:
        end_to_end = {name: summarize(v) for name, v in values[workload].items()}
        for name, s in end_to_end.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
        traced = run(workload, seeds[0], seconds, 1)
        result[workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
