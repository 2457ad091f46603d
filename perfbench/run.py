"""uniprice benchmark: end-to-end metrics per workload, or a traced run that
splits a round into its layers.

    python3 perfbench/run.py --workload full-k2 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 7          # every workload, untraced then traced

A run drives the public API the way the CLI does: ``cli.parse_config`` on
the workload's argv lists, then ``harness.run_experiment``, then
``harness.csv_bytes`` and ``harness.svg_bytes``.  It repeats that unit with
the same seed until ``--seconds`` is used up, checks every replication's
output, and reports medians over the units; the timings of untraced runs
are scaled to the machine's current speed (see ``SpeedGauge``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
replications, ``metrics`` holds the end-to-end metrics (``--trace 0``) or
the per-layer ones (``--trace 1``), and is empty if any replication
raised or failed its check; the exit code is then 1.

The package is imported from ``src/`` of the checkout that holds this file;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Every workload: i.i.d.-uniform adversary, LAB pricing, tie mode validate.
COMMON = ["--adversary", "iid", "--pricing", "lab", "--tie-mode", "validate"]
K2 = ["--units", "2", "--values", "1.0,0.5"]
K8_VALUES = ",".join(repr(1.0 - i / 14) for i in range(8))  # 1.0 down to 0.5

# Each workload is a list of CLI argv lists; the seed is appended per run.
# full-k2: M = 64, 194 nodes, ~44 firing nodes a round; the M-sized Python
#   loops of pseudo_space and harness and the weight update dominate.
# bandit-k8: M = 11, 173 nodes, one-entry signal; the 8-row passes,
#   comparator scan, adversary draws and clearing dominate.
# sweep-k2: criterion 9's configuration with 2 replications per config;
#   the only workload on the process pool, with short replications,
#   per-config output and the all-winner signal.
WORKLOADS = {
    "full-k2": [
        ["--feedback", "full", *K2, "--horizon", "8192", "--reps", "1", "--workers", "1"]
    ],
    "bandit-k8": [
        [
            "--feedback", "bandit", "--units", "8", "--values", K8_VALUES,
            "--horizon", "8192", "--reps", "1", "--workers", "1",
        ]
    ],
    "sweep-k2": [
        ["--feedback", mode, *K2, "--horizon", str(2**e), "--reps", "2", "--workers", "2"]
        for mode in ("bandit", "full", "allwinner")
        for e in range(9, 14)
    ],
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import uniprice
t1 = time.perf_counter()
from uniprice import cli
for argv in json.loads(sys.argv[2]):
    cli.parse_config(argv)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "file": uniprice.__file__}))
"""


class SetupError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


class Api(NamedTuple):
    """The four public calls a unit makes, plain or traced."""

    parse_config: Callable
    run_experiment: Callable
    csv_bytes: Callable
    svg_bytes: Callable


def argv_lists(workload: str, seed: int, workers: int | None = None) -> list[list[str]]:
    extra = ["--seed", str(seed)] + (["--workers", str(workers)] if workers else [])
    return [argv + COMMON + extra for argv in WORKLOADS[workload]]


def import_package():
    if not (SRC / "uniprice" / "__init__.py").is_file():
        raise SetupError(f"no uniprice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uniprice
    from uniprice import cli, harness

    if Path(uniprice.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported uniprice from {uniprice.__file__}, not {SRC}")
    return Api(cli.parse_config, harness.run_experiment, harness.csv_bytes, harness.svg_bytes)


class SpeedGauge:
    """How fast the machine runs right now, from a fixed loop that calls no
    uniprice code.

    On a shared VM the same unit runs up to twice as fast at one moment as
    at another, in CPU time as much as in wall time, and slow spells last
    from seconds to minutes.  The timed figures are therefore scaled to the
    speed at which this loop takes ``NOMINAL_S``: each unit's times by the
    mean of the loop times taken around it.  A change to uniprice leaves
    the loop alone, so it still shows in the scaled figures.  Set-up is not
    scaled: a fresh interpreter's start and imports do not follow this loop
    (their correlation with it was near zero on the reference machine).
    """

    NOMINAL_S = 0.02

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._v = np.linspace(0.0, 1.0, 16)
        self.sample()  # warm-up

    @staticmethod
    def _step(d: dict, x: float, i: int) -> float:
        x = x * 0.999 + i
        d[i & 255] = x
        return x

    def sample(self) -> float:
        """Seconds for one pass of the loop; kept in ``samples``."""
        v, step = self._v, self._step
        d: dict[int, float] = {}
        acc: list[float] = []
        x = 0.0
        t0 = time.perf_counter()
        for i in range(40000):
            x = step(d, x, i)
            if i % 4 == 0:
                acc.append(float(v[i & 15] * x))
            if i % 16 == 0:
                v[i & 15] = np.maximum(v, 0.5).sum() * 1e-3
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


class SetupTimer:
    """Import plus ``parse_config`` times from fresh interpreters.

    Samples are spread over the whole run, one whenever ``INTERVAL``
    seconds have passed, so that their median sees the same machine
    conditions as the timed units rather than one moment of them.
    """

    INTERVAL = 2.0
    MIN_SAMPLES = 5

    def __init__(self, argvs: list[list[str]]) -> None:
        self.argvs = argvs
        self.samples: list[dict] = []
        self._child()  # warm-up: the first import may compile bytecode
        self.sample()

    def _child(self) -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(self.argvs)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up interpreter failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if Path(sample["file"]).resolve().parent.parent != SRC:
            raise SetupError(f"set-up imported uniprice from {sample['file']}")
        return sample

    def sample(self) -> None:
        self.samples.append(self._child())
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL:
            self.sample()

    def medians(self) -> tuple[float, float, float]:
        """Median import, parse_config and set-up (their sum) seconds."""
        while len(self.samples) < self.MIN_SAMPLES:
            self.sample()
        s = self.samples
        return (
            statistics.median(x["import_s"] for x in s),
            statistics.median(x["parse_s"] for x in s),
            statistics.median(x["import_s"] + x["parse_s"] for x in s),
        )


def check_traces(config, traces) -> int:
    """Number of replications whose trace breaks an output invariant."""
    if [tr.run for tr in traces] != list(range(config.replications)):
        return config.replications
    t = np.arange(1, config.horizon + 1)
    failed = 0
    for tr in traces:
        series = (
            tr.realized_utility, tr.expected_utility, tr.cum_expected_regret,
            tr.discretization_bound, tr.price, tr.allocation,
        )
        ok = (
            all(len(s) == config.horizon for s in series)
            and all(np.isfinite(s).all() for s in series)
            and ((tr.allocation >= 0) & (tr.allocation <= config.k)).all()
            and ((tr.price >= 0.0) & (tr.price <= 1.0)).all()
            and np.array_equal(tr.discretization_bound, config.k * t * tr.epsilon)
            and tr.final_regret == tr.cum_expected_regret[-1]
        )
        failed += not ok
    return failed


class Unit:
    """One pass over a workload's configs: parse, simulate, render, check.

    With a ``gauge``, each config's times are also kept scaled by the mean
    of the gauge samples taken just before and just after it.
    """

    def __init__(
        self, api: Api, argvs: list[list[str]], between=None, gauge: SpeedGauge | None = None
    ) -> None:
        self.rounds = self.attempted = self.failed = 0
        self.run_s = self.work_s = self.rep_s = self.worker_s = 0.0
        self.scaled_run_s = self.scaled_work_s = 0.0
        self.finals: list[float] = []
        self.regrets: list[float] = []  # final regret / T
        digest = hashlib.sha256()
        for argv in argvs:
            if between:
                between()
            g0 = gauge.sample() if gauge else SpeedGauge.NOMINAL_S
            tp = time.perf_counter()
            config = api.parse_config(argv)
            self.attempted += config.replications
            try:
                t0 = time.perf_counter()
                traces = api.run_experiment(config)
                t1 = time.perf_counter()
                data = api.csv_bytes(traces)
                plot = api.svg_bytes(traces, config.scale)
                t2 = time.perf_counter()
                g1 = gauge.sample() if gauge else SpeedGauge.NOMINAL_S
            except Exception:  # a failing config must not stop the benchmark
                traceback.print_exc(file=sys.stderr)
                self.failed += config.replications
                continue
            bad = check_traces(config, traces)
            rows = config.replications * config.horizon
            if data.count(b"\n") != rows + 1 or not (
                plot.startswith(b"<svg") and plot.endswith(b"</svg>\n")
            ):
                bad = config.replications
            self.failed += bad
            self.rounds += rows
            self.run_s += t1 - t0
            self.work_s += t2 - tp
            scale = 2 * SpeedGauge.NOMINAL_S / (g0 + g1)
            self.scaled_run_s += (t1 - t0) * scale
            self.scaled_work_s += (t2 - tp) * scale
            self.rep_s += sum(tr.wall_clock for tr in traces)
            self.worker_s += (t1 - t0) * min(config.workers, config.replications)
            self.finals += [tr.final_regret for tr in traces]
            self.regrets += [tr.final_regret / config.horizon for tr in traces]
            digest.update(data)
        self.digest = digest.hexdigest()

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.run_s


def repeat(make, deadline: float) -> list:
    """At least one call of ``make``, then more until the next would end
    past ``deadline``; the results in order."""
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(make())
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > deadline:
            return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(units: list[Unit], label: str) -> None:
    digests = {u.digest for u in units}
    finals = [f for u in units[:1] for f in u.finals]
    regret = f"{statistics.fmean(finals):.6g}" if finals else "none (no replication finished)"
    print(
        f"{label}: {len(units)} units, csv sha256 {'/'.join(sorted(digests))}, "
        f"mean final regret {regret}"
    )


def run_untraced(api: Api, workload: str, seed: int, seconds: float, t_start: float):
    argvs = argv_lists(workload, seed)
    gauge = SpeedGauge()
    setup = SetupTimer(argvs)
    units = repeat(
        lambda: Unit(api, argvs, between=setup.maybe_sample, gauge=gauge), t_start + seconds
    )
    report(units, "untraced")
    consistent = len({u.digest for u in units}) == 1
    if any(u.failed for u in units):
        return units, {}, consistent
    _, _, setup_s = setup.medians()
    raw_work_s = statistics.median(u.work_s for u in units)
    print(
        f"unscaled: rounds_per_s {statistics.median(u.rounds_per_s for u in units):.6g}, "
        f"wall_s {setup_s + raw_work_s:.6g}; "
        f"gauge {statistics.median(gauge.samples) * 1e3:.4g} ms median "
        f"({len(gauge.samples)} samples, nominal {SpeedGauge.NOMINAL_S * 1e3:g} ms)"
    )
    self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "rounds_per_s": metric(
            statistics.median(u.rounds / u.scaled_run_s for u in units), "rounds/s"
        ),
        "wall_s": metric(setup_s + statistics.median(u.scaled_work_s for u in units), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(self_ru, child_ru) / 1024.0, "MB"),
    }
    return units, metrics, consistent


def run_traced(api: Api, workload: str, seed: int, seconds: float, t_start: float):
    """One untraced unit with the workload's own worker count, for the
    digest check and pool efficiency, then pairs of an untraced and a
    traced unit, both with one worker in this process: spans recorded in
    pool children would never come back."""
    from tracing import Tracer

    argvs = argv_lists(workload, seed)
    setup = SetupTimer(argvs)
    plain = Unit(api, argvs, between=setup.maybe_sample)
    report([plain], "untraced")

    tracer = Tracer()
    traced_run = tracer.span("harness.run_experiment", api.run_experiment)

    def run_experiment(config):
        tracer.current_rep = -1
        return traced_run(config)

    traced_api = Api(
        tracer.span("cli.parse_config", api.parse_config),
        run_experiment,
        tracer.span("harness.csv_bytes", api.csv_bytes),
        tracer.span("harness.svg_bytes", api.svg_bytes),
    )
    one_worker = argv_lists(workload, seed, workers=1)
    gauge = SpeedGauge()
    per_unit: list[dict] = []
    counts: list[dict] = []

    def pair() -> tuple[Unit, Unit]:
        base = Unit(api, one_worker, between=setup.maybe_sample, gauge=gauge)
        lo, before = len(tracer.start), dict(tracer.counts)
        tracer.install()
        try:
            unit = Unit(traced_api, one_worker, gauge=gauge)
        finally:
            tracer.remove()
        if not unit.failed:
            hi = len(tracer.start)
            times = tracer.times(lo, hi)
            # harness builds the full-information signal inline, so the
            # signal step is timed as the gap between its neighbours in
            # every mode
            signal_s = tracer.gap(lo, hi, "feedback.make_feedback", "learner.update_weights")
            delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            per_unit.append(layer_metrics(times, signal_s, delta, unit))
            counts.append({**delta, **times.calls})
        return base, unit

    pairs = repeat(pair, t_start + seconds)
    bases = [b for b, _ in pairs]
    units = [u for _, u in pairs]
    report(units, "traced")
    imp_s, parse_s, _ = setup.medians()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}.npz")

    everything = [plain, *bases, *units]
    digests = {u.digest for u in everything}
    consistent = len(digests) == 1 and all(c == counts[0] for c in counts)
    if len(digests) != 1:
        print(f"determinism check failed: {sorted(digests)}", file=sys.stderr)
    if any(c != counts[0] for c in counts):
        print(f"counts differ between traced units: {counts}", file=sys.stderr)
    if any(u.failed for u in everything):
        return everything, {}, consistent
    metrics = {
        name: metric(statistics.median(m[name][0] for m in per_unit), per_unit[0][name][1])
        for name in per_unit[0]
    }
    metrics.update(
        {
            "uniprice.import.s": metric(imp_s, "s"),
            "cli.parse_config.s": metric(parse_s, "s"),
            "harness.pool_efficiency": metric(plain.rep_s / plain.worker_s, "ratio"),
            "harness.regret_per_round": metric(statistics.fmean(plain.regrets), "1/round"),
            # untraced / traced rounds_per_s of the same pair, at one
            # worker, both scaled to machine speed
            "trace.overhead": metric(
                statistics.median(u.scaled_run_s / b.scaled_run_s for b, u in pairs), "ratio"
            ),
        }
    )
    return everything, metrics, consistent


def layer_metrics(times, signal_s: float, counts: dict[str, int], unit: Unit) -> dict:
    """Per-round figures of one traced unit, as (value, unit) pairs."""
    r = unit.rounds

    def us(seconds: float) -> tuple[float, str]:
        return seconds / r * 1e6, "us"

    def own(name: str) -> tuple[float, str]:
        return us(times.own.get(name, 0.0))

    def per_round(name: str) -> tuple[float, str]:
        return counts.get(name, 0) / r, "count"

    passes = times.calls["learner.ensure_passes"]
    return {
        "adversaries.next_bids.us_per_round": own("adversaries.next_bids"),
        "auction_core.clear_auction.us_per_round": own("auction_core.clear_auction"),
        "auction_core.utility_sum.calls_per_round": per_round("auction_core.utility_sum"),
        "pseudo_space.firing_set.us_per_round": own("pseudo_space.firing_set"),
        "pseudo_space.firing_set.nodes_per_round": per_round("pseudo_space.firing_set.nodes"),
        "learner.passes.us_per_round": us(times.total["learner.ensure_passes"]),
        "learner.passes.recompute_ratio": (
            counts.get("learner.backward_pass", 0) / passes, "ratio"
        ),
        "learner.sample_path.walk_us_per_round": own("learner.sample_path"),
        "learner.marginals.us_per_round": own("learner.marginals"),
        "learner.update_weights.us_per_round": own("learner.update_weights"),
        "learner.signal.us_per_round": us(signal_s),
        "learner.signal.entries_per_round": per_round("learner.signal.entries"),
        "feedback.make_feedback.us_per_round": own("feedback.make_feedback"),
        "oracle.best_fixed_total.us_per_round": own("oracle.best_fixed_total"),
        "harness.self_us_per_round": own("harness.run_experiment"),
        "harness.run_experiment.us_per_round": us(times.total["harness.run_experiment"]),
        "harness.output_s": (
            times.total["harness.csv_bytes"] + times.total["harness.svg_bytes"], "s"
        ),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t_start = time.perf_counter()
    try:
        api = import_package()
        run = run_traced if trace else run_untraced
        units, metrics, consistent = run(api, workload, seed, seconds, t_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':44s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    correct = failed == 0 and consistent
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str]]:
    """One run in its own interpreter, so that peak RSS is per run: its
    exit code and standard output lines.  Standard error passes through."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = invoke(workload, seed, seconds, trace)
            if code == 2:
                return 2
            status = max(status, code)
            if not lines:
                result["correct"] = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            one = json.loads(lines[-1])
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, m in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(result))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="default: all, untraced then traced"
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
