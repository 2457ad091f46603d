"""Before and after the zero-allocation event: why the bandit estimator drifted.

The bandit and all-winner estimators shift the observed sub-utility by -K
so every update entry is non-positive.  Before, the shift was only
delivered when some node fired: an action that wins nothing received no
signal at all.  Its cumulative estimated utility stayed pinned at 0 while
every winning action's drifted toward sum(u - K) < 0, and the all-zero-bids
action - whose nodes never fire against adversaries inside (0,1) - became
an absorbing state of the exponential-weights dynamics.

After, an action that wins nothing realizes the zero-allocation event of
its top-bid node (1, j), worth 0, and the estimator puts -K / P((1, j))
there.  Every action's expected estimate is then u - K, so the shift
cancels in the regret.  This script runs both estimators side by side
under bandit feedback; "before" is the current estimator with the
zero-allocation entry dropped.
"""

import math

import numpy as np

from uniprice import (
    AdversaryKind,
    AdversarySpec,
    BidProfile,
    FeedbackMode,
    Valuation,
    bandit_signal,
    build_graph,
    default_parameters,
    encode,
    expected_utility,
    init_state,
    path_log_probability,
    sample_path,
    update_weights,
)
from uniprice.adversaries import next_bids
from uniprice.auction_core import utility_sum
from uniprice.pseudo_space import realized_event


def run(horizon, seed, zero_event):
    k = 2
    eps, eta = default_parameters(k, horizon, FeedbackMode.BANDIT)
    m = round(1 / eps)
    graph = build_graph(k, m)
    state = init_state(graph)
    values = Valuation((1.0, 0.5))
    spec = AdversarySpec(AdversaryKind.IID_UNIFORM, k)
    rng = np.random.Generator(np.random.Philox(seed))
    rng_adv = np.random.Generator(np.random.Philox(seed + 1))
    zero_path = encode(BidProfile((0.0,) * k), graph)
    probe = BidProfile((0.55, 0.45))
    checkpoints = {}
    adversary_bids = next_bids(spec, horizon, rng_adv, eps)
    for t in range(1, horizon + 1):
        beta = adversary_bids[t - 1].tolist()
        levels = sample_path(state, rng)
        bids = [float(graph.levels[j]) for j in levels]
        node, x, price = realized_event(levels, bids, beta, graph)
        utility = utility_sum(values.values, x, price)
        signal = bandit_signal(node, utility, state)
        if zero_event or x > 0:  # before: winning nothing gave no signal
            update_weights(state, signal, eta)
        if t in (1, horizon // 8, horizon // 2, horizon):
            checkpoints[t] = (
                math.exp(path_log_probability(state, zero_path)),
                expected_utility(state, probe, values),
            )
    return checkpoints


HORIZON = 4096
print(f"bandit feedback, K=2, T={HORIZON}, i.i.d. uniform adversary")
print()
for zero_event, label in (
    (False, "before: no signal when nothing is won"),
    (True, "after: -K / P((1, j)) on the zero-allocation event"),
):
    print(label)
    print(f"  {'round':>6s} {'P(all-zero bids)':>18s} {'E[u] vs (0.55,0.45)':>21s}")
    for t, (pz, eu) in run(HORIZON, 99, zero_event).items():
        print(f"  {t:6d} {pz:18.4f} {eu:21.4f}")
    print()

print("without the zero-allocation event, play concentrates on the never-firing")
print("zero action and expected utility collapses; with it, play keeps learning.")
