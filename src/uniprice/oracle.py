"""Brute-force reference computations on small instances.

Everything here enumerates: the best fixed action in hindsight by scoring
every action against every round's clearing, the exact action distribution
by listing path weight products, and exact estimator expectations by
averaging the actual signal code over every possible sampled action.  These
are the oracles the fast paths are tested against; none of them reuse the
weight-pushing recursions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .auction_core import BidProfile, PricingRule, Valuation, clear_auction, utility_sum
from .errors import TooLarge
from .feedback import make_feedback
from .learner import (
    FeedbackMode,
    WeightState,
    _chain_scan,
    allwinner_signal,
    bandit_signal,
    full_info_signal,
)
from .pseudo_space import (
    PseudoGraph,
    PseudoPath,
    decode,
    enumerate_paths,
    event_utilities,
    firing_set,
    observed_set_membership,
)

DEFAULT_PATH_CAP = 10**6


def best_fixed_action_exhaustive(
    histories: Sequence[BidProfile],
    graph: PseudoGraph,
    values: Valuation,
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[PseudoPath, float]:
    """Best fixed action against a recorded adversary history, by clearing
    every grid action against every round.  Ties go to the lexicographically
    smallest path; enumeration order is already lexicographic.
    """
    best_path = None
    best_total = -math.inf
    for path in enumerate_paths(graph, cap):
        bids = decode(path, graph.inv_epsilon)
        total = 0.0
        for beta in histories:
            total += clear_auction(bids, beta, PricingRule.LAB, values).utility
        if total > best_total:
            best_path, best_total = path, total
    if best_path is None:
        raise TooLarge("empty action graph")
    return best_path, best_total


def node_totals_from_history(
    histories: Sequence[BidProfile], graph: PseudoGraph, values: Valuation
) -> np.ndarray:
    """Cumulative sub-utility of every node over the history."""
    totals = np.zeros(graph.n_nodes)
    for beta in histories:
        for i, x, price in firing_set(beta, graph):
            totals[i] += utility_sum(values.values, x, price)
    return totals


def best_fixed_total(node_totals: np.ndarray, graph: PseudoGraph) -> float:
    """Value of the max-weight source-to-sink path, without backtracking.

    Stage scan on the row views of ``node_totals`` (``PseudoGraph.rows``),
    one row at a time from the last bid row up, with one cumsum for every
    gap row's prefix sums; used in the per-round regret accounting where
    only the comparator's total matters.
    """
    g = graph
    t_bid, t_gap = g.rows(node_totals)
    prefix = np.zeros((g.k - 1, g.inv_epsilon + 1))
    t_gap.cumsum(axis=1, out=prefix[:, 1:])
    value = t_bid[-1].copy()
    for r in range(g.k - 2, -1, -1):
        _chain_scan(np.maximum, t_gap[r], prefix[r], value, value)
        np.add(t_bid[r], value, out=value)
    return float(np.maximum.reduce(value))


def best_fixed_action_dp(
    node_totals: np.ndarray, graph: PseudoGraph
) -> tuple[PseudoPath, float]:
    """Max-weight source-to-sink path for per-node cumulative totals.

    Because cumulative action utility is the sum of its nodes' cumulative
    sub-utilities, the hindsight comparator is a longest-path problem on the
    DAG; weights may be negative, so this is a plain topological DP.  Ties
    are broken toward the lexicographically smallest path.
    """
    g = graph
    m = g.inv_epsilon
    best = np.empty(g.n_nodes)
    last = g.bid_ids(g.k)
    best[last] = node_totals[last]
    for kk in range(g.k - 1, 0, -1):
        nxt = g.bid_ids(kk + 1)
        if m > 0:
            gap = g.gap_ids(kk)
            # gap level j looks at gap level j-1 and the next bid at j
            for j in range(m):
                cand = best[nxt[j]]
                if j > 0:
                    cand = max(cand, best[gap[j - 1]])
                best[gap[j]] = node_totals[gap[j]] + cand
        cur = g.bid_ids(kk)
        for j in range(m + 1):
            cand = best[nxt[j]]
            if j > 0 and m > 0:
                cand = max(cand, best[gap[j - 1]])
            best[cur[j]] = node_totals[cur[j]] + cand

    # backtrack; starts and successor lists are in lexicographic order, so
    # keeping the first strict maximizer lands on the lex-smallest optimum
    start = None
    start_val = -math.inf
    for n in g.start_nodes():
        v = float(best[g.node_id(n)])
        if v > start_val:
            start, start_val = n, v
    path = [start]
    node = start
    while True:
        succs = g.successors(node)
        if not succs:
            break
        nxt_node = None
        nxt_val = -math.inf
        for cand in succs:
            v = float(best[g.node_id(cand)])
            if v > nxt_val:
                nxt_node, nxt_val = cand, v
        node = nxt_node
        path.append(node)
    total = 0.0
    for n in path:
        total += float(node_totals[g.node_id(n)])
    return tuple(path), total


def _bid_levels(path: PseudoPath) -> tuple[int, ...]:
    """The K bid levels of ``path``, the form ``sample_path`` returns."""
    return tuple(n.j for n in path if n.is_bid)


def exact_path_distribution(
    state: WeightState, cap: int = DEFAULT_PATH_CAP
) -> dict[PseudoPath, float]:
    """Normalized action probabilities from raw weight products.

    Normalizes over the enumerated products rather than through Gamma_0, so
    it is an independent check of the weight-pushing recursion.
    """
    g = state.graph
    paths = list(enumerate_paths(g, cap))
    scores = np.array(
        [sum(state.log_w[g.node_id(n)] for n in path) for path in paths]
    )
    mx = scores.max()
    weights = np.exp(scores - mx)
    weights /= weights.sum()
    return {path: float(p) for path, p in zip(paths, weights)}


def exact_estimator_expectation(
    state: WeightState,
    adversary: BidProfile,
    values: Valuation,
    mode: FeedbackMode,
    cap: int = DEFAULT_PATH_CAP,
) -> dict[PseudoPath, float]:
    """Expected estimated utility of every comparator action, by summing the
    real signal code over every possible sampled action.

    Runs the same view construction the harness uses, so the expectation
    covers the full learner-facing pipeline.
    """
    g = state.graph
    dist = exact_path_distribution(state, cap)
    comparators = list(dist)
    totals = {path: 0.0 for path in comparators}
    if mode is FeedbackMode.FULL_INFORMATION:
        events = firing_set(adversary, g)
        signal = full_info_signal(events, event_utilities(events, values))
        for path in comparators:
            totals[path] = sum(signal.get(g.node_id(n), 0.0) for n in path)
        return totals
    for sampled, p_sampled in dist.items():
        if p_sampled == 0.0:
            continue
        bids = decode(sampled, g.inv_epsilon)
        outcome = clear_auction(bids, adversary, PricingRule.LAB, values)
        fb = make_feedback(mode, outcome, adversary)
        if mode is FeedbackMode.BANDIT:
            signal = bandit_signal(_bid_levels(sampled), fb, state, values)
        else:
            signal = allwinner_signal(fb, state, values)
        for path in comparators:
            contrib = sum(signal.get(g.node_id(n), 0.0) for n in path)
            totals[path] += p_sampled * contrib
    return totals


def exact_second_moment(
    state: WeightState,
    adversary: BidProfile,
    values: Valuation,
    mode: FeedbackMode,
    cap: int = DEFAULT_PATH_CAP,
) -> float:
    """Exact value of sum over actions of P(action) * E[estimate(action)^2]."""
    g = state.graph
    dist = exact_path_distribution(state, cap)
    comparators = list(dist)
    total = 0.0
    for sampled, p_sampled in dist.items():
        if p_sampled == 0.0:
            continue
        bids = decode(sampled, g.inv_epsilon)
        outcome = clear_auction(bids, adversary, PricingRule.LAB, values)
        fb = make_feedback(mode, outcome, adversary)
        if mode is FeedbackMode.BANDIT:
            signal = bandit_signal(_bid_levels(sampled), fb, state, values)
        elif mode is FeedbackMode.ALL_WINNER:
            signal = allwinner_signal(fb, state, values)
        else:
            events = firing_set(adversary, g)
            signal = full_info_signal(events, event_utilities(events, values))
        for path in comparators:
            est = sum(signal.get(g.node_id(n), 0.0) for n in path)
            total += p_sampled * dist[path] * est * est
    return total


def brute_observation_probability(
    node: int,
    state: WeightState,
    adversary: BidProfile,
    cap: int = DEFAULT_PATH_CAP,
) -> float:
    """P(node id ``node`` observable) by enumerating every sampled action's
    outcome.

    ``node`` may be a firing node or a row-1 bid node whose zero-allocation
    event is realized; for the latter only zero-allocation outcomes reveal
    it, so the result is P(x = 0).
    """
    g = state.graph
    node = g.node_from_id(node)
    dist = exact_path_distribution(state, cap)
    total = 0.0
    for sampled, p_sampled in dist.items():
        bids = decode(sampled, g.inv_epsilon)
        outcome = clear_auction(bids, adversary, PricingRule.LAB, Valuation((0.0,) * g.k))
        if observed_set_membership(node, outcome, g.epsilon):
            total += p_sampled
    return total
