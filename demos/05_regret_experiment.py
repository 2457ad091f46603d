"""A complete seeded regret experiment through the harness, under full
information.

Full-information weights depend only on the adversary's bids, so the
harness runs its learner one batch for each block of adversary rounds:
one pass gives every round's weight-pushing accumulators and marginals,
and the round's walk samples its action.  The outcome comes from
``realized_event`` on the played levels, with no auction clearing.
Traces record realized and exact expected utility plus cumulative regret
against the best fixed grid action in hindsight.  Identical
(config, seed) pairs replay byte-identically.

Writes demos/output/full_info.{csv,svg}.
"""

import pathlib

import numpy as np

from uniprice import (
    AdversaryKind,
    AdversarySpec,
    FeedbackMode,
    PlotScale,
    RunConfig,
    run_experiment,
    write_csv,
    write_svg,
)

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

config = RunConfig(
    k=2,
    horizon=2000,
    feedback=FeedbackMode.FULL_INFORMATION,
    values=(1.0, 0.5),
    adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, 2),
    seed=2024,
    replications=8,
)
traces = run_experiment(config)

finals = np.array([tr.final_regret for tr in traces])
print(f"full information, K=2, T=2000, 8 replications")
print(f"  grid step 1/{round(1/traces[0].epsilon)}, eta={traces[0].eta:.4g}")
print(f"  final regret: mean {finals.mean():.1f}  min {finals.min():.1f}  max {finals.max():.1f}")
print(f"  discretization allowance at T: {traces[0].discretization_bound[-1]:.1f}")

csv_path = out_dir / "full_info.csv"
svg_path = out_dir / "full_info.svg"
write_csv(traces, str(csv_path))
write_svg(traces, str(svg_path), PlotScale.LOGLOG)
print(f"  wrote {csv_path} and {svg_path} (log-log plot annotates the fitted slope)")

print()
print("the same experiment is available from the command line:")
print(
    "  uniprice --units 2 --horizon 2000 --feedback full --adversary iid \\\n"
    "      --values 1,0.5 --seed 2024 --reps 8 --out run.csv --plot run.svg --scale loglog"
)
