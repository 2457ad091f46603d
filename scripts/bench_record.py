"""Record one benchmark run, with the environment it ran in, as BENCH_<n>.json.

    python3 scripts/bench_record.py --seed 3 --seconds 30
    python3 scripts/bench_record.py --seed 3 --seconds 30 --checkout ../old --out BENCH_0.json

Runs ``perfbench/run.py --seed S --seconds N`` of a checkout (default: the
one holding this script) unchanged, in its own interpreter, and passes its
standard output through.  Then it runs acceptance criterion 9 alone under
``pytest --durations=0`` in the same checkout.  Last, in one more
interpreter on the checkout's ``src``, it counts each workload's work
(``work_counts``): the argv lists come from the checkout's
``perfbench/run.py``, and after one warm-up unit (``parse_config``,
``run_experiment``, ``csv_bytes`` and ``svg_bytes`` over the workload's
configs, at one worker so that every call runs in that process) one unit
runs under cProfile, for the Python and builtin calls a round, and one
under tracemalloc, for the peak traced allocation.  These runs are not
timed, and each one's CSV digest must equal the timed run's.  The record
holds the checkout's commit (and whether tracked files differ from it),
the benchmark's last-line JSON object and exit code, the counts, nproc,
the Python and numpy versions, the multiprocessing start method, the CPU
features that numpy's dispatch found, and criterion 9's call seconds.
Without ``--out`` it goes to the first free ``BENCH_<n>.json`` at the
root of this script's checkout.  The exit code is the benchmark's, or 1
if criterion 9 failed or a counting run's digest differs.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
CRITERION_9 = "tests/test_acceptance.py::test_criterion_9_regret_slopes"

# Run in a fresh interpreter: argv[1] is the checkout, argv[2] the seed.
COUNT_CODE = """
import cProfile, hashlib, json, pstats, sys, tracemalloc
sys.path.insert(0, sys.argv[1] + "/perfbench")
import run

api = run.import_package()

def unit(argvs):
    digest, rounds = hashlib.sha256(), 0
    for argv in argvs:
        config = api.parse_config(argv)
        traces = api.run_experiment(config)
        digest.update(api.csv_bytes(traces))
        api.svg_bytes(traces, config.scale)
        rounds += config.replications * config.horizon
    return digest.hexdigest(), rounds

counts = {}
for workload in run.WORKLOADS:
    argvs = run.argv_lists(workload, int(sys.argv[2]), workers=1)
    unit(argvs)  # warm-up
    profile = cProfile.Profile()
    digest, rounds = profile.runcall(unit, argvs)
    calls = {"python": 0, "builtin": 0}
    for (path, _, _), (_, n, _, _, _) in pstats.Stats(profile).stats.items():
        calls["builtin" if path == "~" else "python"] += n
    tracemalloc.start()
    traced = unit(argvs)[0]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    counts[workload] = {
        "python_calls_per_round": calls["python"] / rounds,
        "builtin_calls_per_round": calls["builtin"] / rounds,
        "peak_traced_mb": peak / 2**20,
        "csv_sha256": sorted({digest, traced}),
    }
print(json.dumps(counts))
"""


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "cpu_features": sorted(name for name, found in __cpu_features__.items() if found),
    }


def benchmark(checkout: Path, seed: int, seconds: float) -> tuple[int, dict | None, list[str]]:
    """Exit code, last-line JSON object (None without one) and standard
    output lines of the run; every line is printed as it comes."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", str(seconds)]
    lines = []
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            print(line, end="", flush=True)
            if line.strip():
                lines.append(line)
    last = lines[-1] if lines else ""
    return proc.returncode, json.loads(last) if last.startswith("{") else None, lines


def criterion_9_seconds(checkout: Path) -> float | None:
    """Call seconds of criterion 9 from one pytest run on the checkout's
    ``src``; None, with pytest's output on standard error, if it failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
           CRITERION_9]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    found = re.search(rf"^([\d.]+)s call +{re.escape(CRITERION_9)}$", proc.stdout, re.M)
    if proc.returncode or not found:
        print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
        return None
    return float(found.group(1))


def work_counts(checkout: Path, seed: int) -> dict | None:
    """Per workload, from ``COUNT_CODE`` in a fresh interpreter on the
    checkout: Python and builtin calls a round, the peak traced MB and
    the counting runs' CSV digests; None, with its standard error, if it
    failed."""
    cmd = [sys.executable, "-c", COUNT_CODE, str(checkout), str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def timed_digests(lines: list[str]) -> dict[str, set[str]]:
    """The untraced CSV digests each workload's timed run printed; a run's
    report lines come before its workload line."""
    found: dict[str, set[str]] = {}
    pending: list[str] = []
    for line in lines:
        m = re.match(r"untraced: \d+ units, csv sha256 (\S+),", line)
        if m:
            pending += m.group(1).split("/")
        m = re.match(r"workload (\S+), seed \d+, trace \d$", line)
        if m:
            found.setdefault(m.group(1), set()).update(pending)
            pending = []
    return found


def free_name() -> Path:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--checkout", type=Path, default=ROOT, help="default: this script's")
    p.add_argument("--out", type=Path, help="default: the first free BENCH_<n>.json")
    args = p.parse_args()
    checkout = args.checkout.resolve()

    code, result, lines = benchmark(checkout, args.seed, args.seconds)
    criterion_9_s = criterion_9_seconds(checkout)
    counts = work_counts(checkout, args.seed)
    timed = timed_digests(lines)
    same = counts is not None and all(
        set(c["csv_sha256"]) == timed.get(w) for w, c in counts.items()
    )
    if not same:
        print(f"counting runs' digests differ from the timed runs' {timed}", file=sys.stderr)
    record = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "tracked_files_changed": bool(git(checkout, "status", "--porcelain", "-uno")),
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "criterion_9_s": criterion_9_s,
        "exit_code": code,
        "result": result,
        "work_counts": counts,
    }
    out = args.out or free_name()
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return code or int(criterion_9_s is None or not same)


if __name__ == "__main__":
    sys.exit(main())
