"""Record one benchmark run, with the environment it ran in, as BENCH_<n>.json.

    python3 scripts/bench_record.py --seed 3 --seconds 30
    python3 scripts/bench_record.py --seed 3 --seconds 30 --checkout ../old --out BENCH_0.json

Runs ``perfbench/run.py --seed S --seconds N`` of a checkout (default: the
one holding this script) unchanged, in its own interpreter, and passes its
standard output through.  Then it runs acceptance criterion 9 alone under
``pytest --durations=0`` in the same checkout.  The record holds the
checkout's commit (and whether tracked files differ from it), the
benchmark's last-line JSON object and exit code, nproc, the Python and
numpy versions, the multiprocessing start method, the CPU features that
numpy's dispatch found, and criterion 9's call seconds.  Without ``--out``
it goes to the first free ``BENCH_<n>.json`` at the root of this script's
checkout.  The exit code is the benchmark's, or 1 if criterion 9 failed.
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


def benchmark(checkout: Path, seed: int, seconds: float) -> tuple[int, dict | None]:
    """Exit code and last-line JSON object (None without one) of the run;
    every line of its standard output is printed as it comes."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", str(seconds)]
    last = ""
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            print(line, end="", flush=True)
            last = line if line.strip() else last
    return proc.returncode, json.loads(last) if last.startswith("{") else None


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

    code, result = benchmark(checkout, args.seed, args.seconds)
    criterion_9_s = criterion_9_seconds(checkout)
    record = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "tracked_files_changed": bool(git(checkout, "status", "--porcelain", "-uno")),
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "criterion_9_s": criterion_9_s,
        "exit_code": code,
        "result": result,
    }
    out = args.out or free_name()
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return code or int(criterion_9_s is None)


if __name__ == "__main__":
    sys.exit(main())
