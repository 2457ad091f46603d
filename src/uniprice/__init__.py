"""Online bidding in repeated K-unit uniform-price auctions.

Submodules:

* ``auction_core``: single-shot clearing, dominance clipping, tie offsets.
* ``pseudo_space``: the bid/bid-gap action graph and utility decomposition.
* ``feedback``: one record per round; the modes differ only in the
  adversary bids it reveals.
* ``learner``: exponential weights with weight-pushing sampling and the
  bandit / all-winner sub-utility estimators.
* ``adversaries``: opposing-bid generators, including the first-price
  lower-bound environment.
* ``oracle``: brute-force references for small instances.
* ``harness`` / ``cli``: seeded regret experiments, CSV and SVG output.
"""

from .auction_core import (
    AuctionOutcome,
    BidProfile,
    PricingRule,
    Valuation,
    apply_tie_offset,
    clear_auction,
    clip_dominated,
)
from .adversaries import (
    AdversaryKind,
    AdversarySpec,
    next_bids,
    reduction_consistency_check,
)
from .feedback import Feedback, FeedbackMode, make_feedback
from .harness import (
    PlotScale,
    RegretTrace,
    RunConfig,
    TieMode,
    fit_loglog_slope,
    run_experiment,
    write_csv,
    write_svg,
)
from .learner import (
    WeightState,
    allwinner_signal,
    bandit_signal,
    default_parameters,
    full_info_signal,
    init_state,
    marginals,
    path_log_probability,
    sample_path,
    update_weights,
)
from .oracle import (
    best_fixed_action_dp,
    best_fixed_action_exhaustive,
    best_fixed_total,
    brute_observation_probability,
    exact_estimator_expectation,
    exact_path_distribution,
    exact_second_moment,
    expected_utility,
    node_totals_from_history,
)
from .pseudo_space import (
    PseudoGraph,
    build_graph,
    decode,
    encode,
    enumerate_paths,
    firing_node,
    firing_set,
    node_fires,
    observed_set_membership,
    path_utility,
    sub_utility,
    zero_event_set,
)

__version__ = "0.1.0"
