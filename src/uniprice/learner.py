"""Component-based exponential weighting on the bid/bid-gap graph.

One weight per node, updated multiplicatively from per-node utility signals.
Actions are sampled exactly from the induced product distribution with a
weight-pushing pass: a backward accumulator Gamma(h) sums the weight
products of all path suffixes after h, so the walk start / transition
probabilities W(h') Gamma(h') / Gamma(h) reproduce path probabilities
proportional to the product of node weights.  A symmetric forward pass
yields exact node inclusion probabilities, which the partial-feedback
estimators divide by.

Signals are keyed by node id: each maps the ids of a round's realized
events (``pseudo_space.Events``) to their estimates, and ``update_weights``
scatter-adds eta times them into the log weights.  Everything runs in the
log domain; the raw accumulators overflow after a few thousand rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .auction_core import BidProfile, Valuation, grid_level, utility_sum
from .errors import HorizonTooShort, ZeroMarginal, ZeroObservationProbability
from .pseudo_space import (
    _BETA_LOW,
    PseudoGraph,
    PseudoNode,
    PseudoPath,
    _observed,
    firing_set,
    zero_event_set,
)


class FeedbackMode(Enum):
    FULL_INFORMATION = "full"
    BANDIT = "bandit"
    ALL_WINNER = "allwinner"


#: Sparse per-node signal fed to the weight update: node id -> value.
EstimateVector = dict[int, float]


@dataclass
class WeightState:
    """Log-domain node weights plus the backward/forward accumulators."""

    graph: PseudoGraph
    log_w: np.ndarray
    backward: np.ndarray
    forward: np.ndarray
    log_gamma0: float = math.nan
    fresh: bool = False


def init_state(graph: PseudoGraph) -> WeightState:
    """All weights start at 1 (log 0)."""
    n = graph.n_nodes
    return WeightState(
        graph=graph,
        log_w=np.zeros(n),
        backward=np.full(n, -np.inf),
        forward=np.full(n, -np.inf),
    )


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))


def _chain_lse(mult: np.ndarray, add: np.ndarray) -> np.ndarray:
    """Solve G[0] = add[0], G[i] = logaddexp(mult[i-1] + G[i-1], add[i]).

    Rewritten as a cumulative log-sum-exp so numpy does the scan:
    with P[i] = mult[0] + ... + mult[i-1],
    G[i] = P[i] + LSE_{i' <= i} (add[i'] - P[i']).
    """
    if add.size == 1:
        return add.copy()
    p = np.concatenate(([0.0], np.cumsum(mult)))
    return p + np.logaddexp.accumulate(add - p)


def backward_pass(state: WeightState) -> WeightState:
    """Fill Gamma: suffix weight products.  Gamma = 1 on the last bid row;
    elsewhere Gamma(h) = sum over successors h' of W(h') Gamma(h').

    Bid and gap nodes at the same (k, j) share successors, so one scan per
    k-level fills both rows.
    """
    g = state.graph
    m = g.inv_epsilon
    lw, lg = state.log_w, state.backward
    lg[g.bid_ids(g.k)] = 0.0
    for kk in range(g.k - 1, 0, -1):
        nxt = g.bid_ids(kk + 1)
        c = lw[nxt] + lg[nxt]
        if m == 0:
            g_ext = c
        else:
            gap = g.gap_ids(kk)
            g_ext = _chain_lse(lw[gap], c)
            lg[gap] = g_ext[:m]
        lg[g.bid_ids(kk)] = g_ext
    b1 = g.bid_ids(1)
    state.log_gamma0 = _logsumexp(lw[b1] + lg[b1])
    return state


def forward_pass(state: WeightState) -> WeightState:
    """Fill F: prefix weight products including the node's own weight.
    F(h) = W(h) * sum over predecessors h' of F(h'), seeded on the first
    bid row with F = W."""
    g = state.graph
    m = g.inv_epsilon
    lw, lf = state.log_w, state.forward
    b1 = g.bid_ids(1)
    lf[b1] = lw[b1]
    for kk in range(1, g.k):
        cur = g.bid_ids(kk)
        nxt = g.bid_ids(kk + 1)
        if m == 0:
            lf[nxt] = lw[nxt] + lf[cur]
            continue
        gap = g.gap_ids(kk)
        # gap row, from the top level down:
        # F_gap(j) = W_gap(j) * (F_bid(j+1) + F_gap(j+1))
        a_rev = lw[gap][::-1]
        c_rev = lf[cur][m:0:-1]
        h = _chain_lse(a_rev[1:], a_rev + c_rev)
        lf[gap] = h[::-1]
        out = np.empty(m + 1)
        out[:m] = lw[nxt][:m] + np.logaddexp(lf[cur][:m], lf[gap])
        out[m] = lw[nxt][m] + lf[cur][m]
        lf[nxt] = out
    return state


def ensure_passes(state: WeightState) -> WeightState:
    if not state.fresh:
        backward_pass(state)
        forward_pass(state)
        state.fresh = True
    return state


def marginals(state: WeightState) -> np.ndarray:
    """Inclusion probability of every node under the current distribution:
    P(h in sampled path) = F(h) Gamma(h) / Gamma_0."""
    ensure_passes(state)
    out = np.exp(state.forward + state.backward - state.log_gamma0)
    return np.clip(out, 0.0, 1.0)


def node_marginal(state: WeightState, i: int) -> float:
    """Inclusion probability of node id ``i``."""
    ensure_passes(state)
    v = math.exp(state.forward[i] + state.backward[i] - state.log_gamma0)
    return min(max(v, 0.0), 1.0)


def sample_path(state: WeightState, rng: np.random.Generator) -> PseudoPath:
    """Draw one action with probability (prod of its node weights) / Gamma_0.

    Walks the graph sampling each next node with probability
    W(h') Gamma(h') / Gamma(h); level-0 nodes have a single successor and
    consume no randomness.  Bid and gap nodes at the same (k, j) share both
    successors and Gamma, so the walk only tracks (stage, level).
    """
    ensure_passes(state)
    g = state.graph
    lw, lg = state.log_w, state.backward
    b1 = g.bid_ids(1)
    probs = np.exp(lw[b1] + lg[b1] - state.log_gamma0)
    u = rng.random()
    acc = 0.0
    j = g.inv_epsilon
    for jj, pr in enumerate(probs):
        acc += pr
        if u < acc:
            j = jj
            break
    path = [PseudoNode(2, j)]
    offset = g.row_offset.tolist()
    for kk in range(1, g.k):
        bid_off, gap_off = offset[2 * kk - 2], offset[2 * kk - 1]
        while j > 0:
            gi = gap_off + j - 1
            p_gap = math.exp(lw[gi] + lg[gi] - lg[bid_off + j])
            if rng.random() >= p_gap:
                break
            j -= 1
            path.append(PseudoNode(2 * kk + 1, j))
        path.append(PseudoNode(2 * (kk + 1), j))
    return tuple(path)


def path_log_probability(state: WeightState, path: PseudoPath) -> float:
    """Log probability of ``path`` under the sampler, as the explicit product
    of its start and transition conditionals."""
    ensure_passes(state)
    g = state.graph
    lw, lg = state.log_w, state.backward
    i0 = g.node_id(path[0])
    total = lw[i0] + lg[i0] - state.log_gamma0
    for prev, node in zip(path, path[1:]):
        i, ip = g.node_id(node), g.node_id(prev)
        total += lw[i] + lg[i] - lg[ip]
    return float(total)


def update_weights(state: WeightState, signal: EstimateVector, eta: float) -> WeightState:
    """Multiply each signalled node's weight by exp(eta * signal): a
    scatter-add into the log weights."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = len(signal)
    ids = np.fromiter(signal, dtype=np.intp, count=n)
    state.log_w[ids] += eta * np.fromiter(signal.values(), dtype=float, count=n)
    state.fresh = False
    return state


# --- feedback signals ---------------------------------------------------


def full_info_signal(
    adversary: BidProfile, values: Valuation, graph: PseudoGraph
) -> EstimateVector:
    """True sub-utility of every firing node; all other entries are zero
    and omitted."""
    return {
        i: utility_sum(values.values, x, price)
        for i, x, price in firing_set(adversary, graph)
    }


def fired_node_from_feedback(
    bids: BidProfile, allocation: int, price: float, graph: PseudoGraph
) -> Optional[int]:
    """Identify the id of the played action's firing node from
    (allocation, price) alone: a price equal to the learner's own
    allocation-th bid is a bid node, any other price lands in the gap band
    below the next grid point."""
    if allocation == 0:
        return None
    if price == bids.bids[allocation - 1]:
        j = grid_level(price, graph.epsilon)
        if j is not None:
            return int(graph.bid_ids(allocation)[j])
    return int(graph.gap_ids(allocation)[math.floor(price * graph.inv_epsilon)])


def bandit_signal(
    played: PseudoPath, feedback, state: WeightState, values: Valuation
) -> EstimateVector:
    """Single-entry estimate (w - K) / P(node played) at the played node
    whose event is realized.

    ``feedback`` needs only ``allocation`` and ``price``.  A won allocation
    x >= 1 realizes the fired node, with w the utility of x items at the
    price.  A zero allocation realizes the zero-allocation event of the
    played top-bid node (1, j), with w = 0, so the entry is -K / P((1, j)).
    Every action holds exactly one realized event, so the expected estimate
    of every action is its utility minus K.  The constant -K shift keeps
    every entry non-positive, which controls the estimator's range; the
    bias is the same for all actions and cancels in the regret.
    """
    x = feedback.allocation
    g = state.graph
    if x == 0:
        i, w = int(g.bid_ids(1)[played[0].j]), 0.0
    else:
        own = BidProfile(tuple(float(g.levels[n.j]) for n in played if n.is_bid))
        i = fired_node_from_feedback(own, x, feedback.price, g)
        w = utility_sum(values.values, x, feedback.price)
    p_node = node_marginal(state, i)
    if p_node <= 0.0:
        raise ZeroMarginal(f"played node {g.node_from_id(i)} has zero inclusion probability")
    return {i: (w - g.k) / p_node}


def allwinner_signal(
    feedback, state: WeightState, values: Valuation
) -> EstimateVector:
    """Estimates at every observed realized event: (w - K) / P(observed).

    The feedback reveals the adversary's K - x winning bids and puts the
    rest below the price, so the realized events it pins down are those
    ``firing_set`` and ``zero_event_set`` find on the revealed profile
    (the hidden bids set to the low sentinel) that pass the observed-set
    rule ``_observed``.  Firing nodes carry w, the utility of their
    allocation at their price.  Only a zero allocation reveals beta_K and
    with it the zero-allocation events, with w = 0; each gets the
    denominator P(x = 0), so every action's expected estimate is its
    utility minus K.  The observation probability is one minus the mass of
    the realized events ranked strictly above the event: the outcomes that
    hide it, all of which the feedback also reveals.
    """
    g = state.graph
    x, p = feedback.allocation, feedback.price
    revealed = BidProfile(feedback.adversary_winning_bids + (_BETA_LOW,) * x)
    events = zero_event_set(revealed, g) + firing_set(revealed, g)
    seen = _observed(x, p, events.alloc, events.price)
    ids, alloc, price = events.ids[seen], events.alloc[seen], events.price[seen]
    rank = 2.0 * alloc + price  # the order ``_observed`` compares in
    order = np.argsort(rank, kind="stable")
    mass = marginals(state)[ids][order]
    above = np.concatenate((np.cumsum(mass[::-1])[::-1], [0.0]))
    q = 1.0 - above[np.searchsorted(rank[order], rank, side="right")]
    if np.any(q <= 0.0):
        i = int(ids[np.argmax(q <= 0.0)])
        raise ZeroObservationProbability(
            f"node {g.node_from_id(i)} has zero observation probability"
        )
    return {
        i: (utility_sum(values.values, a, pr) - g.k) / qi
        for i, a, pr, qi in zip(ids.tolist(), alloc.tolist(), price.tolist(), q.tolist())
    }


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
    events = firing_set(adversary, g) + zero_event_set(adversary, g)
    hit = np.flatnonzero(events.ids == node)
    if hit.size != 1:
        raise ValueError(f"node {node} holds no realized event")
    h = hit[0]
    seen = _observed(events.alloc, events.price, events.alloc[h], events.price[h])
    return min(float(marginals(state)[events.ids[seen]].sum()), 1.0)


# --- expected utility and parameters -------------------------------------


def expected_utility(
    state: WeightState, adversary: BidProfile, values: Valuation
) -> float:
    """Exact one-round expected utility of the current distribution:
    sum over firing nodes of marginal * sub-utility."""
    marg = marginals(state)
    total = 0.0
    for i, x, price in firing_set(adversary, state.graph):
        total += float(marg[i]) * utility_sum(values.values, x, price)
    return total


def default_parameters(
    k: int, t: int, mode: FeedbackMode, form: str = "default"
) -> tuple[float, float]:
    """Grid step and learning rate prescribed for each feedback model.

    Bandit: eps = (K/T)^(1/3), eta = K^(-1/3) T^(-2/3) sqrt(log(T/K)/3).
    Full information: eps = sqrt(K/T), eta = sqrt(log(T/K) / (2KT)).
    All-winner: eps = sqrt(K^3/T), eta = 1/(K sqrt(T)).

    1/eps is rounded up to the nearest integer (with a snap tolerance so
    exact analytic values survive float noise).  ``form="grid"`` recomputes
    eta from the realized grid step instead of the closed forms in K and T
    alone.
    """
    if t <= k:
        raise HorizonTooShort(f"horizon {t} must exceed the number of items {k}")
    if mode is FeedbackMode.BANDIT:
        m_raw = (t / k) ** (1.0 / 3.0)
    elif mode is FeedbackMode.FULL_INFORMATION:
        m_raw = math.sqrt(t / k)
    else:
        m_raw = math.sqrt(t / k**3)
    m = max(1, math.ceil(m_raw - 1e-9))
    epsilon = 1.0 / m

    if form == "default":
        if mode is FeedbackMode.BANDIT:
            eta = k ** (-1.0 / 3.0) * t ** (-2.0 / 3.0) * math.sqrt(math.log(t / k) / 3.0)
        elif mode is FeedbackMode.FULL_INFORMATION:
            eta = math.sqrt(math.log(t / k) / (2.0 * k * t))
        else:
            eta = 1.0 / (k * math.sqrt(t))
    elif form == "grid":
        if mode is FeedbackMode.BANDIT:
            eta = math.sqrt(epsilon * math.log(m) / (k * t)) if m > 1 else 1.0 / math.sqrt(k * t)
        elif mode is FeedbackMode.FULL_INFORMATION:
            eta = math.sqrt(math.log(m) / (k * t)) if m > 1 else math.sqrt(1.0 / (k * t))
        else:
            eta = 1.0 / (k * math.sqrt(t))
    else:
        raise ValueError(f"unknown parameter form {form!r}")
    return epsilon, eta
