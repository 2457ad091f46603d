"""Brute-force reference computations on small instances.

Everything here enumerates: the best fixed action in hindsight by scoring
every action against every round's clearing, the exact action distribution
by listing path weight products, and exact estimator expectations by
averaging the actual signal code over every possible sampled action.  These
are the oracles the fast paths are tested against; none of them reuse the
weight-pushing recursions.  Actions are paths of node ids
(``pseudo_space.PseudoPath``), listed by ``enumerate_paths``.

``expected_utility`` and ``observation_probability`` are exact references
computed from the marginals rather than by enumeration; ``_revealed_events``
is the all-winner reference on the revealed bids alone.
``best_fixed_total``, the harness's per-round comparator, is not an oracle:
it runs the passes' ``learner._suffix_scan``; ``best_fixed_action_dp`` checks it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .auction_core import BidProfile, PricingRule, Valuation, clear_auction, utility_sum
from .errors import TooLarge
from .feedback import FeedbackMode, make_feedback
from .learner import (
    EstimateVector,
    WeightState,
    _scan_views,
    _suffix_scan,
    allwinner_signal,
    bandit_signal,
    expectation,
    marginals,
)
from .pseudo_space import (
    _BETA_LOW,
    Events,
    PseudoGraph,
    PseudoPath,
    _observed,
    decode,
    enumerate_paths,
    event_utilities,
    firing_node,
    firing_set,
    observed_set_membership,
    zero_event_set,
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
        bids = decode(path, graph)
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
        for i, x, price in firing_set(beta.bids, graph):
            totals[i] += utility_sum(values.values, x, price)
    return totals


def best_fixed_total(node_totals: np.ndarray, graph: PseudoGraph) -> np.ndarray:
    """Value of the max-weight source-to-sink path, without backtracking:
    the backward pass's suffix recursion (``learner._suffix_scan``) in
    (max, +) on the row views of ``node_totals``, then the best start.
    The totals must be finite, as sums of finite utilities are.
    Maps a (..., n) stack of node totals to its (...) values; each is
    bitwise the value of its own one-row call.  Any memory order works,
    and the scan's buffers take the stack's; a node-major stack (the
    transpose of an (n, ...) array) makes every row view one contiguous
    block, which numpy scans fastest."""
    t_bid, t_gap = graph.rows(node_totals)
    best_after = np.empty_like(t_bid, order="K")
    _suffix_scan(np.maximum, _scan_views(t_bid, t_gap, best_after))
    return np.maximum.reduce(t_bid[..., 0, :] + best_after[..., 0, :], axis=-1)


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
    path: list[int] = []
    succs = g.bid_ids(1)[::-1].tolist()
    while succs:
        node, node_val = succs[0], -math.inf
        for cand in succs:
            v = float(best[cand])
            if v > node_val:
                node, node_val = cand, v
        path.append(node)
        succs = g.successors(node)
    total = 0.0
    for i in path:
        total += float(node_totals[i])
    return tuple(path), total


def exact_path_distribution(
    state: WeightState, cap: int = DEFAULT_PATH_CAP
) -> dict[PseudoPath, float]:
    """Normalized action probabilities from raw weight products.

    Normalizes over the enumerated products rather than through Gamma_0, so
    it is an independent check of the weight-pushing recursion.
    """
    paths = list(enumerate_paths(state.graph, cap))
    log_w = state.log_w.tolist()
    scores = np.array([sum(log_w[i] for i in path) for path in paths])
    mx = scores.max()
    weights = np.exp(scores - mx)
    weights /= weights.sum()
    return {path: float(p) for path, p in zip(paths, weights)}


def expected_utility(
    state: WeightState, adversary: BidProfile, values: Valuation
) -> float:
    """Exact one-round expected utility of the current distribution:
    sum over firing nodes of marginal * sub-utility, as the block
    ``expectation`` of a one-round block."""
    events = firing_set(adversary.bids, state.graph)
    return float(expectation(marginals(state)[None], events, event_utilities(events, values))[0])


def _estimates(
    state: WeightState,
    adversary: BidProfile,
    values: Valuation,
    mode: FeedbackMode,
    dist: dict[PseudoPath, float],
) -> Iterator[tuple[float, list[float]]]:
    """For every sampled action of positive probability in ``dist``: its
    probability and the estimated utility of every comparator action, in
    ``dist``'s order.

    Clears the sampled action against ``adversary``, narrows the outcome
    with ``make_feedback`` and runs the mode's signal code, which reads
    ``state``'s marginals itself, on it; bandit's node is the scalar
    ``firing_node``'s, or ``sampled[0]`` when none fires.
    """
    g = state.graph
    for sampled, p_sampled in dist.items():
        if p_sampled == 0.0:
            continue
        bids = decode(sampled, g)
        outcome = clear_auction(bids, adversary, PricingRule.LAB, values)
        fb = make_feedback(mode, outcome, adversary)
        if mode is FeedbackMode.BANDIT:
            node = firing_node(sampled, adversary, g)
            node = sampled[0] if node is None else node
            signal = bandit_signal(node, outcome.utility, state)
        elif mode is FeedbackMode.ALL_WINNER:
            fired = _revealed_events(fb, g)[1]
            signal = allwinner_signal(fb, fired, event_utilities(fired, values), state)
        else:
            events = firing_set(adversary.bids, g)
            signal = EstimateVector(events.ids, event_utilities(events, values))
        est = [0.0] * g.n_nodes
        for i, v in zip(signal.ids.tolist(), signal.values.tolist()):
            est[i] += v
        yield p_sampled, [sum(est[i] for i in path) for path in dist]


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
    dist = exact_path_distribution(state, cap)
    totals = dict.fromkeys(dist, 0.0)
    for p_sampled, estimates in _estimates(state, adversary, values, mode, dist):
        for path, est in zip(dist, estimates):
            totals[path] += p_sampled * est
    return totals


def exact_second_moment(
    state: WeightState,
    adversary: BidProfile,
    values: Valuation,
    mode: FeedbackMode,
    cap: int = DEFAULT_PATH_CAP,
) -> float:
    """Exact value of sum over actions of P(action) * E[estimate(action)^2]."""
    dist = exact_path_distribution(state, cap)
    total = 0.0
    for p_sampled, estimates in _estimates(state, adversary, values, mode, dist):
        for p_path, est in zip(dist.values(), estimates):
            total += p_sampled * p_path * est * est
    return total


def observation_probability(
    node: int, state: WeightState, adversary: BidProfile
) -> float:
    """P over the sampled action that the realized event at node id
    ``node`` lands in the observed set.

    Partitions on the outcome class: every realized event, a firing node
    or a zero-allocation event (see ``zero_event_set``), is an outcome
    with probability equal to its node's inclusion marginal, and every
    action holds exactly one of them, so the class masses sum to one.
    Membership is ``_observed`` per class; meant for oracles and tests,
    since it reads the raw adversary profile.
    """
    g = state.graph
    events = firing_set(adversary.bids, g) + zero_event_set(adversary.bids[-1], g)
    hit = np.flatnonzero(events.ids == node)
    if hit.size != 1:
        raise ValueError(f"node {node} holds no realized event")
    h = hit[0]
    seen = _observed(events.alloc, events.price, events.alloc[h], events.price[h])
    return min(float(marginals(state)[events.ids[seen]].sum()), 1.0)


def _revealed_events(feedback, graph: PseudoGraph) -> tuple[Events, Events]:
    """The all-winner reference: the zero and the firing events ``_observed``
    admits on the revealed profile, the K - x winning bids and x times
    ``_BETA_LOW``.  Joined, they are what ``allwinner_signal`` must keep of
    the round's events; it can take the firing part in their place."""
    x, p = feedback.allocation, feedback.price
    revealed = feedback.revealed + (_BETA_LOW,) * x
    zero, fired = zero_event_set(revealed[-1], graph), firing_set(revealed, graph)
    return tuple(e[_observed(x, p, e.alloc, e.price)] for e in (zero, fired))


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
    dist = exact_path_distribution(state, cap)
    total = 0.0
    for sampled, p_sampled in dist.items():
        bids = decode(sampled, g)
        outcome = clear_auction(bids, adversary, PricingRule.LAB, Valuation((0.0,) * g.k))
        if observed_set_membership(node, outcome, g):
            total += p_sampled
    return total
