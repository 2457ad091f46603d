"""An end-to-end reference replication, for tiny instances (K <= 3, M <= 4,
T <= 200): every CSV column of a run recomputed from explicit path
products, the scalar node rules and clearing.  It uses none of the
weight-pushing passes, the block events or ``best_fixed_total``, so it
checks the fast code's output without resting on the golden digests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniprice import (
    AdversaryKind,
    AdversarySpec,
    BidProfile,
    FeedbackMode,
    RunConfig,
    TieMode,
    Valuation,
    build_graph,
    clear_auction,
    decode,
    enumerate_paths,
    init_state,
    node_fires,
    observed_set_membership,
    run_experiment,
    sub_utility,
)
from uniprice.adversaries import next_bids
from uniprice.auction_core import PricingRule, apply_tie_offset
from uniprice.harness import resolve_parameters
from uniprice.oracle import brute_observation_probability
from test_learner import inverted_levels, levels_of

# every CSV column from the scalar rules: CI reruns it without numpy's AVX-512 loops
pytestmark = pytest.mark.dispatch


def reference_signal(mode, path, outcome, beta, values, log_w, law, g):
    """The round's estimates from the scalar references: every firing
    node's sub-utility under full information; else (w - K) / P at the
    realized events the feedback shows, the played one under bandit and
    every observed one under all-winner.  A realized event is a firing
    node, or a first-row bid node below every adversary bid (w = 0)."""
    fires = [h for h in range(g.n_nodes) if node_fires(h, beta, g)[0]]
    if mode is FeedbackMode.FULL_INFORMATION:
        return {h: sub_utility(h, beta, values, g) for h in fires}
    zero = [h for h in g.bid_ids(1).tolist() if g.levels[g.level[h]] < beta.bids[-1]]
    realized = zero + fires
    if mode is FeedbackMode.BANDIT:
        (h,) = [h for h in path if h in realized]  # every action holds exactly one
        p = sum(q for other, q in law.items() if h in other)
        return {h: (sub_utility(h, beta, values, g) - g.k) / p}
    state = init_state(g)  # read for its log weights only
    state.log_w[:] = [log_w[h] for h in range(g.n_nodes)]
    return {
        h: (sub_utility(h, beta, values, g) - g.k) / brute_observation_probability(h, state, beta)
        for h in realized
        if observed_set_membership(h, outcome, g)
    }


def reference_replication(config, rep):
    """Replication ``rep`` of ``config`` as the columns (realized utility,
    expected utility, cumulative expected regret, discretization bound,
    price, allocation), each a list over the rounds.

    It derives the harness's three Philox streams from (seed, rep) and
    takes the same adversary block from ``next_bids``.  Each round the
    action law comes from the explicit weight products of every action,
    and the round's K uniforms pick the played action through its exact
    conditionals.  Clearing is ``clear_auction``, on the offset bids
    against the market profile in perturb mode; E[u] sums every action's
    market utility times its probability, and the comparator is the best
    running total over every action.  The estimates, in the node frame
    (the adversary shifted down by the offset), update log weights kept
    in a dict.
    """
    streams = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,)).spawn(3)
    rng_learn, rng_adv, rng_tie = (np.random.Generator(np.random.Philox(s)) for s in streams)
    epsilon, eta = resolve_parameters(config)
    g = build_graph(config.k, round(1.0 / epsilon))
    assert config.k <= 3 and g.inv_epsilon <= 4 and config.horizon <= 200
    values = Valuation(config.values)
    perturb = config.tie_mode is TieMode.PERTURB
    offset = float(rng_tie.uniform(0.0, epsilon / 100.0)) if perturb else 0.0
    paths = list(enumerate_paths(g))
    by_levels = {levels_of(g, path): path for path in paths}
    grid = {path: decode(path, g) for path in paths}
    market = {p: apply_tie_offset(b, offset, epsilon) if perturb else b for p, b in grid.items()}
    log_w = dict.fromkeys(range(g.n_nodes), 0.0)
    totals = dict.fromkeys(paths, 0.0)
    cum_expected = 0.0
    columns = [[] for _ in range(6)]
    block = next_bids(
        config.adversary, config.horizon, rng_adv, epsilon, require_off_grid=not perturb
    )
    for t, row in enumerate(block.tolist(), 1):
        beta_market = BidProfile(tuple(row))
        beta_node = BidProfile(tuple(b - offset for b in row)) if perturb else beta_market
        scores = [sum(log_w[h] for h in path) for path in paths]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        law = {path: w / sum(weights) for path, w in zip(paths, weights)}
        path = by_levels[inverted_levels(law, g, rng_learn.random(g.k).tolist(), margin=0.0)]
        outcomes = {p: clear_auction(market[p], beta_market, PricingRule.LAB, values) for p in paths}
        utility = {p: o.utility for p, o in outcomes.items()}
        outcome = outcomes[path]
        expected = sum(law[p] * utility[p] for p in paths)
        cum_expected += expected
        for p in paths:
            totals[p] += utility[p]
        round_row = (
            outcome.utility, expected, max(totals.values()) - cum_expected,
            config.k * t * epsilon, outcome.price, outcome.allocation,
        )
        for column, value in zip(columns, round_row):
            column.append(value)
        outcome_node = clear_auction(grid[path], beta_node, PricingRule.LAB, values)
        signal = reference_signal(
            config.feedback, path, outcome_node, beta_node, values, log_w, law, g
        )
        for h, v in signal.items():
            log_w[h] += eta * v
    return columns


@st.composite
def tiny_configs(draw):
    """K in 1..3, M in 1..4, T in K+1..200, an i.i.d. uniform adversary
    and a drawn seed; two replications."""
    k = draw(st.integers(1, 3))
    return dict(
        k=k,
        horizon=draw(st.integers(k + 1, 200)),
        values=tuple(1 - i / (2 * k) for i in range(k)),
        adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, k),
        seed=draw(st.integers(0, 2**32 - 1)),
        epsilon=1.0 / draw(st.integers(1, 4)),
        replications=2,
    )


#: The largest instance the reference takes: 35 actions, 200 rounds.
LARGEST = dict(
    k=3, horizon=200, values=(1.0, 5 / 6, 2 / 3), seed=11, epsilon=0.25, replications=2,
    adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, 3),
)


class TestReferenceReplication:
    @pytest.mark.parametrize("tie_mode", list(TieMode))
    @pytest.mark.parametrize("feedback", list(FeedbackMode))
    @given(fields=tiny_configs())
    @example(fields=LARGEST)
    @settings(max_examples=5, deadline=None)
    def test_every_csv_column_matches_the_reference(self, feedback, tie_mode, fields):
        config = RunConfig(feedback=feedback, tie_mode=tie_mode, **fields)
        for trace in run_experiment(config):
            realized, expected, regret, bound, price, allocation = reference_replication(
                config, trace.run
            )
            close = dict(rel=1e-9, abs=1e-9)
            assert trace.realized_utility.tolist() == pytest.approx(realized, **close)
            assert trace.expected_utility.tolist() == pytest.approx(expected, **close)
            assert trace.cum_expected_regret.tolist() == pytest.approx(regret, **close)
            assert trace.discretization_bound.tolist() == pytest.approx(bound, **close)
            assert trace.price.tolist() == pytest.approx(price, **close)
            assert trace.allocation.tolist() == allocation
