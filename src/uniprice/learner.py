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
Each pass also computes the marginals, which the walks' start draws, the
signals and ``marginals`` read.  A batch of B states along a leading
rounds axis runs these once, each round with the bits of its own call;
full information's weights do not depend on the play, so the harness runs
its learner that way.  A batch keeps no record of which round failed: the
harness replays a failing block round by round.

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
    any memory order gives the same bits.  Each pass sets ``marg``, the
    marginals, to a new array.  A batch of B states, one per round, has
    (B, 2, n) stacks, (B, n) views and ``marg`` and a (B, 1) ``log_gamma0``.

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
    marg: np.ndarray = field(init=False, repr=False)
    log_w: np.ndarray = field(init=False)
    backward: np.ndarray = field(init=False)
    forward: np.ndarray = field(init=False)
    dirty_lo: int = field(init=False)
    dirty_hi: int = field(init=False)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    scan: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.log_w, self.backward = self.w2[..., 0, :], self.acc[..., 0, :]
        self.forward = self.acc[..., 1, ::-1]
        self.rows = self.graph.rows(self.w2) + self.graph.rows(self.acc)
        self.scan = _scan_views(self.rows[0], self.rows[1], self.rows[2])
        self.mark_all_dirty()

    def mark_all_dirty(self) -> None:
        """Make the next pass recompute every row."""
        self.dirty_lo, self.dirty_hi = 0, self.graph.n_nodes - 1


def init_state(graph: PseudoGraph, rounds: int | None = None) -> WeightState:
    """All weights start at 1 (log 0); a batch of ``rounds`` states when
    given.  The (2, n) stacks are stored node-major, as the transposes of
    (n, 2) arrays (of (n, 2, B) ones for a batch): each (2, M+1) row view
    the passes read or write is then one contiguous block, on which numpy
    runs its 1-D loop instead of a 2-D strided one."""
    shape = (graph.n_nodes, 2) + (() if rounds is None else (rounds,))
    return WeightState(graph=graph, w2=np.zeros(shape).T, acc=np.full(shape, -np.inf).T)


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) along the last axis, a float for a 1-D ``a``; a
    row whose maximum is not finite gives that maximum.  A batch's rows go
    through a C-order array, which numpy sums row by row pairwise, as a
    1-D array, whatever ``a``'s memory order: the bits of one-row calls."""
    if a.ndim == 1:
        m = float(np.maximum.reduce(a))
        if not math.isfinite(m):
            return m
        return m + math.log(float(np.add.reduce(np.exp(a - m))))
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    finite = np.isfinite(m)
    e = np.zeros(a.shape)
    np.subtract(a, m, out=e, where=finite)  # rows of a non-finite maximum stay 0
    np.exp(e, out=e)
    sums = np.add.reduce(e, axis=-1).tolist()
    return np.array([
        top + math.log(total) if ok else top
        for top, total, ok in zip(m[..., 0].tolist(), sums, finite[..., 0].tolist())
    ])


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
    ``_suffix_scan`` over the (2, n) stacks (over every round of a batch).

    Gamma, in row 0, holds suffix weight products: Gamma = 1 on the last
    bid row; elsewhere Gamma(h) = sum over successors h' of W(h') Gamma(h').
    F holds prefix weight products, without the node's own weight as Gamma
    leaves it out: F = 1 on the first bid row; elsewhere F(h) = sum over
    predecessors h' of W(h') F(h').  Predecessors are the reversed graph's
    successors, so F is Gamma of the reversed graph, kept reversed in row
    1.  Then log Gamma_0 = logsumexp over the first bid row of W + Gamma.
    The same (2, M+1) sum gives, in row 1, the last bid row's W + F, whose
    total must match: ``WeightOverflow`` when log Gamma_0 is not finite or
    the two differ by more than ``_END_GAP``; a batch raises the message of
    its first failing round.
    """
    w_bid, _, a_bid, a_gap = state.rows
    state.w2[..., 1, :] = state.log_w[..., ::-1]
    _suffix_scan(np.logaddexp, state.scan, rows)
    a_gap[..., :rows, :] = a_bid[..., :rows, :-1]  # gap (k, j) shares bid (k, j)'s successors
    ends = w_bid[..., 0, :] + a_bid[..., 0, :]
    log_g0 = _logsumexp(ends[..., 0, :])
    log_end = np.logaddexp.reduce(ends[..., 1, :], axis=-1)
    if log_end.ndim:  # a batch
        state.log_gamma0 = log_g0[:, None]
        with np.errstate(invalid="ignore"):  # inf - inf in a failing round
            failed = np.flatnonzero(~(np.abs(log_end - log_g0) <= _END_GAP))
        if len(failed):
            _check_ends(float(log_g0[failed[0]]), float(log_end[failed[0]]))
    else:
        state.log_gamma0 = log_g0
        _check_ends(log_g0, float(log_end))
    return state


def _check_ends(log_g0: float, log_end: float) -> None:
    """``WeightOverflow`` when log Gamma_0 is not finite or differs from
    ``log_end``, the same total from the last bid row, by more than
    ``_END_GAP``."""
    if not math.isfinite(log_g0):
        raise WeightOverflow(f"log Gamma_0 is {log_g0} after the weight update")
    if not abs(log_end - log_g0) <= _END_GAP:
        raise WeightOverflow(
            f"log Gamma_0 is {log_g0} from the first bid row but {log_end} from the last"
        )


def ensure_passes(state: WeightState) -> WeightState:
    """Bring Gamma, F, log Gamma_0 and ``marg`` up to date with ``log_w``:
    one ``backward_pass`` on the dirty rows, new marginals, then mark clean.

    Gamma's bid row k reads only the weights of the rows after it, and F's
    only those before it.  So the graph's bid rows above the highest dirty
    ``graph.row`` h, (h+1)//2 of them, and the reversed graph's above the
    lowest l, (2K-1-l)//2, need recomputing; the stacked scan recomputes
    the larger count in both, and the extra rows come out bit for bit as
    they were.  Log weights must be finite: one sum over the dirty range
    checks them first, and ``WeightOverflow`` names a node that is -inf,
    +inf or nan (in a batch, the first such node of the first such round).
    A state that raises stays dirty, so every later call raises again.  A
    batch's error does not say which round failed: the harness replays a
    failing block round by round (``harness._full_information``)."""
    g, lo, hi = state.graph, state.dirty_lo, state.dirty_hi
    if lo <= hi:
        changed = state.log_w[..., lo : hi + 1]
        if not math.isfinite(np.add.reduce(changed, axis=None)):  # a finite sum has finite terms
            bad = np.argwhere(~np.isfinite(changed))  # none if finite terms overflow
            if len(bad):
                at = tuple(bad[0].tolist())  # (i,) for one state, (round, i) for a batch
                raise WeightOverflow(f"node {g.label(lo + at[-1])} has log weight {changed[at]}")
        hi, lo = int(g.row[hi]), int(g.row[lo])
        backward_pass(state, max((hi + 1) // 2, (2 * g.k - 1 - lo) // 2))
        marg = np.add(state.log_w, state.forward)
        marg += state.backward
        marg -= state.log_gamma0
        state.marg = np.minimum(np.exp(marg, out=marg), 1.0, out=marg)
        state.dirty_lo, state.dirty_hi = g.n_nodes, -1
    return state


def marginals(state: WeightState) -> np.ndarray:
    """Inclusion probability of every node under the current distribution:
    P(h in sampled path) = W(h) F(h) Gamma(h) / Gamma_0, capped at 1; (B, n)
    for a batch, each row bitwise its round's own call.  It is the pass's
    ``marg``, shared until the next pass: do not write into it."""
    return ensure_passes(state).marg


def _walk(j: int, w_gap: list, gamma: list, u: list) -> tuple[int, ...]:
    """The K levels of the walk from level ``j`` of bid row 1, as
    ``sample_path`` describes it: bid row r + 2 is reached down gap row
    r + 1.5, whose log weights ``w_gap[r]`` lists, from bid row r + 1,
    whose log Gamma ``gamma[r]`` lists (Python floats), on the uniform
    ``u[r]``."""
    levels = [j]
    # only the steps the walk reads, which are few: a walk stops at its
    # first failed step
    try:
        for w_row, g_row, x in zip(w_gap, gamma, u):
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


def sample_path(state: WeightState, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one action with probability (prod of its node weights) / Gamma_0
    and return its K bid levels (``encode`` gives its nodes), by inverse
    CDF on exactly ``rng.random(K)``.

    u[0] picks the start level j of bid row 1 from its marginals, W(h)
    Gamma(h) / Gamma_0 as F = 1 there (their cap at 1 moves no draw).
    Should rounding leave u[0] at or above the summed probabilities, the
    draw falls back to the highest start level of positive probability.
    Then row r walks down its gap levels, each step taken with probability
    W(gap) Gamma(gap) / Gamma(bid): it takes n steps iff u[r] is below the
    product of its first n step probabilities.  Bid and gap nodes at the
    same (k, j) share both successors and Gamma, so the walk only tracks
    the level and reads Gamma(gap) from the bid row.
    """
    probs = marginals(state)[: state.graph.inv_epsilon + 1]
    _, w_gap, b_bid, _ = state.rows  # row 0 of each stack is the graph's
    u = rng.random(state.graph.k).tolist()
    cum = probs.cumsum()
    j = int(cum.searchsorted(u[0], side="right"))
    if j == len(cum):  # rounding left u[0] at or above the summed probabilities
        j = int(np.flatnonzero(probs)[-1])
    return _walk(j, w_gap[0].tolist(), b_bid[0, :-1].tolist(), u[1:])


def sample_paths(state: WeightState, u: np.ndarray) -> list[tuple[int, ...]]:
    """``sample_path`` on every round of a batch, round i on the uniforms
    ``u[i]`` of a (B, K) array: the start draws of the whole batch at
    once from its marginals, one conversion of its rows to Python floats,
    then each round's walk.  Philox's ``random((B, K))`` equals B calls of
    ``random(K)``, so the walks are those of B ``sample_path`` calls,
    start-level fallback included; the earliest failing walk raises."""
    probs = marginals(state)[:, : state.graph.inv_epsilon + 1]
    _, w_gap, b_bid, _ = state.rows
    cum = probs.cumsum(axis=-1)
    top = cum.shape[-1]
    starts = (cum <= u[:, :1]).sum(axis=-1)  # each row's searchsorted(u[i, 0], "right")
    rows = zip(starts.tolist(), w_gap[:, 0].tolist(), b_bid[:, 0, :-1].tolist(), u[:, 1:].tolist())
    walks = []
    for i, (j, *row) in enumerate(rows):
        if j == top:  # sample_path's fallback, on this round's probabilities
            j = int(np.flatnonzero(probs[i])[-1])
        walks.append(_walk(j, *row))
    return walks


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


def bandit_signal(node: int, utility: float, state: WeightState) -> EstimateVector:
    """A one-entry ``EstimateVector``: (w - K) / P(node) at the played
    action's realized event ``node`` of utility w = ``utility``
    (``pseudo_space.realized_event``: the zero event, w = 0, when nothing
    is won), P from ``marginals(state)``.  Every action holds exactly
    one realized event, so its expected estimate is its utility minus K.
    The constant -K shift keeps every entry non-positive, which controls
    the estimator's range; the bias is the same for all actions and
    cancels in the regret.
    """
    g = state.graph
    p_node = float(marginals(state)[node])
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
    feedback, events: Events, utilities: np.ndarray, state: WeightState
) -> EstimateVector:
    """An ``EstimateVector`` over every observed realized event:
    (w - K) / P(observed).

    ``events`` are the round's firing events, computed from the raw
    profile, with their ``utilities``; P is read from ``marginals(state)``.
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
    q = 1.0 - np.append(np.cumsum(marginals(state)[ids][::-1])[::-1], 0.0)[1:]
    n_zero = int(np.count_nonzero(seen.alloc == 0))
    if n_zero:
        q[:n_zero] = q[n_zero - 1]
    if np.any(q <= 0.0):
        i = int(ids[np.argmax(q <= 0.0)])
        raise ZeroObservationProbability(f"node {g.label(i)} has zero observation probability")
    return EstimateVector(ids, (w - g.k) / q)


# --- expectation and parameters ------------------------------------------


def expectation(marg: np.ndarray, utilities: np.ndarray):
    """Sum of marg * utilities along the last axis, added left to right
    from 0.0: a float for 1-D arrays, else an array of the leading shape.
    Trailing zero terms leave a sum's bits as they are, so the rows of a
    zero-padded (B, E) table sum as their unpadded 1-D calls do."""
    if not marg.shape[-1]:
        return 0.0 if marg.ndim == 1 else np.zeros(marg.shape[:-1])
    # cumsum adds left to right; 0.0 + gives the loop's +0.0 when every term is -0.0
    total = (marg * utilities).cumsum(axis=-1)[..., -1]
    return 0.0 + (float(total) if marg.ndim == 1 else total)


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
