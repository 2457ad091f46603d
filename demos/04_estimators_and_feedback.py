"""Sub-utility estimators under partial feedback.

Bandit feedback reveals (allocation, price-if-won); all-winner feedback
additionally reveals every winning bid.  The estimators put importance-
weighted, range-shifted signals on the nodes the feedback pins down:

  bandit      (w - K) / P(node in played action)    at the played node
                                                    whose event is realized
  all-winner  (w - K) / P(node observable)          at every observable
                                                    realized event

An action that wins nothing realizes the zero-allocation event of its
top-bid node, worth w = 0.  Averaging the actual signal code over every
possible sampled action shows the expectation identity: u - K for every
comparator action, zero-allocation ones included.
"""

import numpy as np

from uniprice import (
    BidProfile,
    FeedbackMode,
    PricingRule,
    Valuation,
    build_graph,
    clear_auction,
    decode,
    exact_estimator_expectation,
    exact_second_moment,
    init_state,
)

g = build_graph(2, 2)
state = init_state(g)
state.log_w[:] = np.random.default_rng(3).normal(0, 1, g.n_nodes)
adversary = BidProfile((0.83, 0.31))
values = Valuation((1.0, 0.5))

print("exact expectation of each action's estimated utility:")
print(f"{'bids':>14s} {'true u':>8s} {'bandit E':>9s} {'all-winner E':>13s}")
exp_b = exact_estimator_expectation(state, adversary, values, FeedbackMode.BANDIT)
exp_a = exact_estimator_expectation(state, adversary, values, FeedbackMode.ALL_WINNER)
for path in exp_b:
    bids = decode(path, g)
    u = clear_auction(bids, adversary, PricingRule.LAB, values).utility
    print(
        f"{str(bids.bids):>14s} {u:+8.3f} {exp_b[path]:+9.3f} {exp_a[path]:+13.3f}"
    )
print()
print("every action sits exactly at u - 2, zero-winners included.")
print()

m2_b = exact_second_moment(state, adversary, values, FeedbackMode.BANDIT)
m2_a = exact_second_moment(state, adversary, values, FeedbackMode.ALL_WINNER)
print(f"second moment, bandit     : {m2_b:8.3f}")
print(f"second moment, all-winner : {m2_a:8.3f}")
print("the richer feedback divides by larger observation probabilities,")
print("which is where its smaller variance (and better regret rate) comes from.")
