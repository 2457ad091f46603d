"""Component-based exponential weighting on the bid/bid-gap graph.

One weight per node, updated multiplicatively from per-node utility signals.
Actions are sampled exactly from the induced product distribution with a
weight-pushing pass: a backward accumulator Gamma(h) sums the weight
products of all path suffixes after h, so the walk start / transition
probabilities W(h') Gamma(h') / Gamma(h) reproduce path probabilities
proportional to the product of node weights.  The forward accumulator F is
the same recursion on the reversed graph, and W F Gamma / Gamma_0 gives
exact node inclusion probabilities, which the partial-feedback estimators
divide by.  The two passes run as one suffix scan over a (2, n) stack of
the graph and its reverse, and recompute only the rows that the updates
since the last pass reached (``WeightState``'s dirty range), with the bits
of a full pass; a log weight that is not finite raises ``WeightOverflow``.

A round's signal is an ``EstimateVector``: the strictly ascending ids of
the nodes whose realized events (``pseudo_space.Events``) it credits, and
their estimates, as two arrays; ``update_weights`` scatter-adds eta times
the estimates into the log weights.  Bandit reads the played action's
realized event (``pseudo_space.realized_event``) and its utility.
All-winner reads the round's ``feedback.Feedback`` and events, computed
from the raw profile; the proven and tested ``_observed`` filter hides
what its revealed bids do not decide.  Everything runs in the log domain;
the raw accumulators overflow after a few thousand rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HorizonTooShort,
    WeightOverflow,
    ZeroMarginal,
    ZeroObservationProbability,
)
from .feedback import FeedbackMode
from .pseudo_space import Events, PseudoGraph, PseudoPath, _observed, zero_event_set


@dataclass(slots=True, eq=False)  # arrays compare elementwise: compare records by identity
class EstimateVector:
    """A round's signal: node ``ids`` in strictly ascending order and their
    estimates ``values``, two equal-length arrays; every other node's
    estimate is zero.  ``len`` counts the entries.  An id must not repeat:
    the scatter-add in ``update_weights`` would keep only one of its
    terms."""

    ids: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class WeightState:
    """Log-domain node weights plus the backward/forward accumulators,
    stacked for one pass over the graph and its reverse (id i -> n-1-i,
    see ``PseudoGraph.rows``).

    ``w2`` is (2, n): ``log_w`` in row 0 and the same weights reversed in
    row 1, which each pass refreshes from row 0.  ``acc`` is (2, n): Gamma
    (``backward``) in row 0 and F reversed in row 1, so ``forward`` is the
    view ``acc[1, ::-1]``.  ``log_w``, ``backward`` and ``forward`` are
    views, ``rows`` holds the (bid, gap) row views of ``w2`` and ``acc``,
    and ``scan`` the split views ``_suffix_scan`` reads; all are built
    once, and the arrays are updated in place, never replaced.
    ``init_state`` stores both stacks node-major, for speed (see there);
    any memory order gives the same bits.

    ``dirty_lo`` and ``dirty_hi`` are the lowest and highest node id
    whose weight changed since the last ``ensure_passes``, or n and -1
    when none did; a new state is all dirty.  ``update_weights`` widens
    the range.  Code that writes ``log_w`` directly after a pass must call
    ``mark_all_dirty``.
    """

    graph: PseudoGraph
    w2: np.ndarray
    acc: np.ndarray
    log_gamma0: float = math.nan
    log_w: np.ndarray = field(init=False)
    backward: np.ndarray = field(init=False)
    forward: np.ndarray = field(init=False)
    dirty_lo: int = field(init=False)
    dirty_hi: int = field(init=False)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    scan: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.log_w, self.backward, self.forward = self.w2[0], self.acc[0], self.acc[1, ::-1]
        self.rows = self.graph.rows(self.w2) + self.graph.rows(self.acc)
        self.scan = _scan_views(self.rows[0], self.rows[1], self.rows[2])
        self.mark_all_dirty()

    def mark_all_dirty(self) -> None:
        """Make the next pass recompute every row."""
        self.dirty_lo, self.dirty_hi = 0, self.graph.n_nodes - 1


def init_state(graph: PseudoGraph) -> WeightState:
    """All weights start at 1 (log 0).  The (2, n) stacks are stored
    node-major, as the transposes of (n, 2) arrays: each (2, M+1) row view
    the passes read or write is then one contiguous block, on which numpy
    runs its 1-D loop instead of a 2-D strided one."""
    n = graph.n_nodes
    return WeightState(graph=graph, w2=np.zeros((n, 2)).T, acc=np.full((n, 2), -np.inf).T)


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.maximum.reduce(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.add.reduce(np.exp(a - m))))


def _scan_views(w_bid: np.ndarray, w_gap: np.ndarray, out: np.ndarray) -> tuple:
    """Split once what ``_suffix_scan`` reads, for the bid and gap row
    views ``w_bid`` (..., K, M+1) and ``w_gap`` (..., K-1, M) of a node
    array and the bid-row-shaped ``out``, and write 0 on ``out``'s last
    row, which no scan writes again: the gap rows, a prefix buffer
    (..., K-1, M+1) whose column 0 stays 0, and per gap row r the views
    (w_bid[r+1], out[r+1], prefix[r], out[r]).  The prefix buffer takes
    ``out``'s memory order, so on node-major stacks its row views are
    contiguous blocks too."""
    out[..., -1, :] = 0.0
    prefix = np.zeros_like(out[..., :-1, :], order="K")
    steps = [
        (w_bid[..., r + 1, :], out[..., r + 1, :], prefix[..., r, :], out[..., r, :])
        for r in range(w_gap.shape[-2])
    ]
    return w_gap, prefix, steps


def _suffix_scan(op: np.ufunc, views: tuple, rows: int | None = None) -> None:
    """Fill ``out`` of ``views = _scan_views(w_bid, w_gap, out)`` with the
    suffix recursion on a node array's row views: 0 on the last bid row,
    and bid row r the ``op``-scan along gap row r of
    ``w_bid[r+1] + out[r+1]``; leading axes are independent node arrays.
    ``np.logaddexp`` gives the weight-pushing passes, ``np.maximum`` the
    best path suffix.  Bid and gap nodes at the same (k, j) share
    successors, so gap row r's value is bid row r's first M entries.

    One cumsum gives every gap row's prefix sums; row r is then prefix +
    op-accumulate(w_bid[r+1] + out[r+1] - prefix), so the weights must be
    finite (``ensure_passes`` checks the log weights).

    Only bid rows 0..``rows``-1 (default: all) are recomputed; the rest,
    and the last row's 0 that ``_scan_views`` wrote, keep their values.
    """
    w_gap, prefix, steps = views
    if rows is None:
        rows = len(steps)
    w_gap[..., :rows, :].cumsum(axis=-1, out=prefix[..., :rows, 1:])
    for w_next, out_next, pre, row in reversed(steps[:rows]):
        np.add(w_next, out_next, out=row)
        np.subtract(row, pre, out=row)
        op.accumulate(row, axis=-1, out=row)
        np.add(row, pre, out=row)


#: Largest gap between log Gamma_0 and the same total from the last bid row:
#: an error d in a log is a relative error of about d in every probability
#: read.  Runs in float range stay below 1e-13; weights past it, far above 1.
_END_GAP = 1e-6


def backward_pass(state: WeightState, rows: int) -> WeightState:
    """Fill Gamma and F, bid rows 0..``rows``-1 of each, in one
    ``_suffix_scan`` over the (2, n) stacks.

    Gamma, in row 0, holds suffix weight products: Gamma = 1 on the last
    bid row; elsewhere Gamma(h) = sum over successors h' of W(h') Gamma(h').
    F holds prefix weight products, without the node's own weight as Gamma
    leaves it out: F = 1 on the first bid row; elsewhere F(h) = sum over
    predecessors h' of W(h') F(h').  Predecessors are the reversed graph's
    successors, so F is Gamma of the reversed graph, kept reversed in row
    1.  Then log Gamma_0 = logsumexp over the first bid row of W + Gamma.
    The same (2, M+1) sum gives, in row 1, the last bid row's W + F, whose
    total must match: ``WeightOverflow`` when log Gamma_0 is not finite or
    the two differ by more than ``_END_GAP``.
    """
    w_bid, _, a_bid, a_gap = state.rows
    state.w2[1] = state.log_w[::-1]
    _suffix_scan(np.logaddexp, state.scan, rows)
    a_gap[:, :rows] = a_bid[:, :rows, :-1]  # gap (k, j) shares bid (k, j)'s successors
    ends = w_bid[:, 0] + a_bid[:, 0]
    state.log_gamma0 = log_g0 = _logsumexp(ends[0])
    if not math.isfinite(log_g0):
        raise WeightOverflow(f"log Gamma_0 is {log_g0} after the weight update")
    log_end = float(np.logaddexp.reduce(ends[1]))
    if not abs(log_end - log_g0) <= _END_GAP:
        raise WeightOverflow(
            f"log Gamma_0 is {log_g0} from the first bid row but {log_end} from the last"
        )
    return state


def ensure_passes(state: WeightState) -> WeightState:
    """Bring Gamma, F and log Gamma_0 up to date with ``log_w``: one
    ``backward_pass`` on the dirty rows, then mark the state clean.

    Gamma's bid row k reads only the weights of the rows after it, and F's
    only those before it.  So the graph's bid rows above the highest dirty
    ``graph.row`` h, (h+1)//2 of them, and the reversed graph's above the
    lowest l, (2K-1-l)//2, need recomputing; the stacked scan recomputes
    the larger count in both, and the extra rows come out bit for bit as
    they were.  Log weights must be finite: one sum over the dirty range
    checks them first, and ``WeightOverflow`` names a node that is -inf,
    +inf or nan.  A state that raises stays dirty, so every later call
    raises again."""
    g, lo, hi = state.graph, state.dirty_lo, state.dirty_hi
    if lo <= hi:
        changed = state.log_w[lo : hi + 1]
        if not math.isfinite(np.add.reduce(changed)):  # a finite sum has finite terms
            bad = np.flatnonzero(~np.isfinite(changed))  # none if finite terms overflow
            if len(bad):
                i = int(bad[0])
                raise WeightOverflow(f"node {g.label(lo + i)} has log weight {changed[i]}")
        hi, lo = int(g.row[hi]), int(g.row[lo])
        backward_pass(state, max((hi + 1) // 2, (2 * g.k - 1 - lo) // 2))
        state.dirty_lo, state.dirty_hi = g.n_nodes, -1
    return state


def marginals(state: WeightState) -> np.ndarray:
    """Inclusion probability of every node under the current distribution:
    P(h in sampled path) = W(h) F(h) Gamma(h) / Gamma_0, capped at 1."""
    ensure_passes(state)
    out = np.add(state.log_w, state.forward)
    out += state.backward
    out -= state.log_gamma0
    np.exp(out, out=out)
    return np.minimum(out, 1.0, out=out)


def sample_path(state: WeightState, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one action with probability (prod of its node weights) / Gamma_0
    and return its K bid levels (``encode`` gives its nodes), by inverse
    CDF on exactly ``rng.random(K)``.

    u[0] picks the start level j of bid row 1, drawn with probability
    W(h) Gamma(h) / Gamma_0.  Should rounding leave u[0] at or above the
    summed probabilities, the draw falls back to the highest start level
    of positive probability.  Then row r walks down its gap levels, each
    step taken with probability W(gap) Gamma(gap) / Gamma(bid): it takes n
    steps iff u[r] is below the product of its first n step probabilities.
    Bid and gap nodes at the same (k, j) share both successors and Gamma,
    so the walk only tracks the level and reads Gamma(gap) from the bid
    row.
    """
    ensure_passes(state)
    w_bid, w_gap, b_bid, _ = state.rows  # row 0 of each stack is the graph's
    u = rng.random(state.graph.k).tolist()
    probs = np.exp(w_bid[0, 0] + b_bid[0, 0] - state.log_gamma0)
    cum = probs.cumsum()
    j = int(cum.searchsorted(u[0], side="right"))
    if j == len(cum):
        j = int(np.flatnonzero(probs)[-1])
    levels = [j]
    # only the steps the walk reads, which are few: a walk stops at its
    # first failed step
    try:
        for w_row, g_row, x in zip(w_gap[0].tolist(), b_bid[0, :-1].tolist(), u[1:]):
            p = 1.0
            while j > 0:
                # log probability of gap level j - 1 from bid level j
                p *= math.exp(w_row[j - 1] + g_row[j - 1] - g_row[j])
                if x >= p:
                    break
                j -= 1
            levels.append(j)
    except OverflowError:
        raise WeightOverflow("a walk step's log probability overflows") from None
    return tuple(levels)


def path_log_probability(state: WeightState, path: PseudoPath) -> float:
    """Log probability of ``path`` (node ids) under the sampler, as the
    explicit product of its start and transition conditionals."""
    ensure_passes(state)
    lw, lg = state.log_w, state.backward
    total = lw[path[0]] + lg[path[0]] - state.log_gamma0
    for prev, i in zip(path, path[1:]):
        total += lw[i] + lg[i] - lg[prev]
    return float(total)


def update_weights(state: WeightState, signal: EstimateVector, eta: float) -> WeightState:
    """Multiply each signalled node's weight by exp(eta * estimate): a
    scatter-add into the log weights (a scalar add for bandit's one
    entry), which widens the dirty range to the signal's first and last
    id.  ``eta`` must be positive and finite: an infinite one would turn a
    negative estimate into a -inf log weight."""
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    ids = signal.ids
    n = len(ids)
    if n == 1:
        lo = hi = ids.item(0)
        state.log_w[lo] += eta * signal.values.item(0)
    elif n:
        state.log_w[ids] += eta * signal.values
        lo, hi = ids.item(0), ids.item(-1)
    else:
        return state
    if lo < state.dirty_lo:
        state.dirty_lo = lo
    if hi > state.dirty_hi:
        state.dirty_hi = hi
    return state


# --- feedback signals ---------------------------------------------------


def full_info_signal(ids: np.ndarray, utilities: np.ndarray) -> EstimateVector:
    """True sub-utility of every firing node: ``ids`` are the ids of the
    round's ``firing_set``, ascending, and ``utilities`` their
    ``event_utilities``.  The record holds the two arrays themselves, so
    slices of a block's arrays stay views."""
    return EstimateVector(ids, utilities)


def bandit_signal(
    node: int, utility: float, state: WeightState, marg: np.ndarray
) -> EstimateVector:
    """A one-entry ``EstimateVector``: (w - K) / P(node) at the played
    action's realized event ``node`` of utility w = ``utility``
    (``pseudo_space.realized_event``: the zero event, w = 0, when nothing
    is won); ``marg`` is ``marginals(state)``.  Every action holds exactly
    one realized event, so its expected estimate is its utility minus K.
    The constant -K shift keeps every entry non-positive, which controls
    the estimator's range; the bias is the same for all actions and
    cancels in the regret.
    """
    g = state.graph
    p_node = float(marg[node])
    if p_node <= 0.0:
        raise ZeroMarginal(f"played node {g.label(node)} has zero inclusion probability")
    return EstimateVector(np.array([node]), np.array([(utility - g.k) / p_node]))


def _observed_events(feedback, events: Events, utilities: np.ndarray, graph: PseudoGraph):
    """All-winner's observed events and their utilities: at x = 0 the zero
    events at beta_K = p (utility 0) and all ``events``, else the ``events``
    ``_observed`` admits.  ``oracle._revealed_events`` is the reference."""
    x, p = feedback.allocation, feedback.price
    if x == 0:
        zero = zero_event_set(p, graph)
        return zero + events, np.concatenate((np.zeros(len(zero)), utilities))
    seen = _observed(x, p, events.alloc, events.price)
    return events[seen], utilities[seen]


def allwinner_signal(
    feedback, events: Events, utilities: np.ndarray, state: WeightState, marg: np.ndarray
) -> EstimateVector:
    """An ``EstimateVector`` over every observed realized event:
    (w - K) / P(observed).

    ``events`` are the round's firing events, computed from the raw
    profile, with their ``utilities``; ``marg`` is ``marginals(state)``.
    ``_observed_events`` keeps the ones the feedback reveals (README gives
    the proof).  Zero-allocation events carry w = 0 and the denominator
    P(x = 0), so every action's expected estimate is its utility minus K.
    P(observed) is one minus the mass of the realized events after the
    event, in which order their (allocation, price) pairs ascend: the
    outcomes that hide it, all of which the feedback reveals.  The pairs
    ascend strictly, except that the zero events, present at x = 0 only,
    lead and share one pair, so they share the last one's q.  The same
    order is id order: the zero events are the row-1 bid nodes below
    beta_K, and every firing one lies above them, so the ids ascend
    strictly.
    """
    g = state.graph
    seen, w = _observed_events(feedback, events, utilities, g)
    ids = seen.ids
    q = 1.0 - np.append(np.cumsum(marg[ids][::-1])[::-1], 0.0)[1:]
    n_zero = int(np.count_nonzero(seen.alloc == 0))
    if n_zero:
        q[:n_zero] = q[n_zero - 1]
    if np.any(q <= 0.0):
        i = int(ids[np.argmax(q <= 0.0)])
        raise ZeroObservationProbability(f"node {g.label(i)} has zero observation probability")
    return EstimateVector(ids, (w - g.k) / q)


# --- expectation and parameters ------------------------------------------


def expectation(marg: np.ndarray, utilities: np.ndarray) -> float:
    """Sum of marg * utilities, added left to right from 0.0."""
    if not len(marg):
        return 0.0
    # cumsum adds left to right; 0.0 + gives the loop's +0.0 when every term is -0.0
    return 0.0 + float((marg * utilities).cumsum()[-1])


def default_parameters(k: int, t: int, mode: FeedbackMode) -> tuple[float, float]:
    """Grid step and learning rate prescribed for each feedback model.

    Bandit: eps = (K/T)^(1/3), eta = K^(-1/3) T^(-2/3) sqrt(log(T/K)/3).
    Full information: eps = sqrt(K/T), eta = sqrt(log(T/K) / (2KT)).
    All-winner: eps = sqrt(K^3/T), eta = 1/(K sqrt(T)).

    1/eps is rounded up to the nearest integer (with a snap tolerance so
    exact analytic values survive float noise).
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

    if mode is FeedbackMode.BANDIT:
        eta = k ** (-1.0 / 3.0) * t ** (-2.0 / 3.0) * math.sqrt(math.log(t / k) / 3.0)
    elif mode is FeedbackMode.FULL_INFORMATION:
        eta = math.sqrt(math.log(t / k) / (2.0 * k * t))
    else:
        eta = 1.0 / (k * math.sqrt(t))
    return epsilon, eta
