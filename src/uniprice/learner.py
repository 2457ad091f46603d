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
its learner that way, one batch for each block of adversary rounds.  A
batch keeps no record of which round failed: the harness replays a
failing block round by round.  Every mode's expected utilities come from
one ``expectation`` call a block, on its rounds' marginals.

A round's signal is an ``EstimateVector``: the strictly ascending ids of
the nodes whose realized events (``pseudo_space.Events``) it credits, and
their estimates, as two arrays; ``update_weights`` scatter-adds eta times
the estimates into the log weights.  Bandit reads the played action's
realized event (``pseudo_space.realized_event``) and its utility.
All-winner reads the round's ``feedback.Feedback`` and events, computed
from the raw profile; the proven and tested ``_observed`` rule hides
what its revealed bids do not decide, and the signal keeps the suffix of
the events that rule admits.  Everything runs in the log domain;
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
from .pseudo_space import Events, PseudoGraph, PseudoPath


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
    marginals, to a new array, and ``log_gamma0`` to the float log
    Gamma_0.  A batch of B states, one per round, has (B, 2, n) stacks,
    (B, n) views and ``marg`` and a (B, 1) ``log_gamma0``, each round's
    entries bitwise its own state's.

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


#: Largest gap between log Gamma_0 and the same total from the last bid row,
#: and between 1 and the first bid row's marginal sum: an error d in a log is
#: a relative error of about d in every probability read.  Runs in float
#: range stay below 1e-13; weights past it, far above 1.
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
    1.  The same (2, M+1) sum gives the first bid row's W + Gamma in row 0
    and the last bid row's W + F in row 1, and one ``np.logaddexp.reduce``
    along its rows gives both totals: log Gamma_0 and the end check's,
    which must match: ``WeightOverflow`` when log Gamma_0 is not finite or
    the two differ by more than ``_END_GAP``; a batch raises the message of
    its first failing round.  The reduce adds each row's terms left to
    right, whatever the memory order, so a batch's rounds keep the bits of
    their one-state calls.
    """
    w_bid, _, a_bid, a_gap = state.rows
    state.w2[..., 1, :] = state.log_w[..., ::-1]
    _suffix_scan(np.logaddexp, state.scan, rows)
    a_gap[..., :rows, :] = a_bid[..., :rows, :-1]  # gap (k, j) shares bid (k, j)'s successors
    totals = np.logaddexp.reduce(w_bid[..., 0, :] + a_bid[..., 0, :], axis=-1)
    if totals.ndim > 1:  # a batch
        state.log_gamma0 = totals[:, :1]
        with np.errstate(invalid="ignore"):  # inf - inf in a failing round
            failed = np.flatnonzero(~(np.abs(totals[:, 1] - totals[:, 0]) <= _END_GAP))
        if len(failed):
            _check_ends(*totals[failed[0]].tolist())
    else:
        state.log_gamma0, log_end = totals.tolist()
        _check_ends(state.log_gamma0, log_end)
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


def _check_start_row(start: np.ndarray) -> None:
    """``WeightOverflow`` when the first bid row's marginals ``start`` do
    not sum to 1 within ``_END_GAP``: every action starts on that row, so
    they are its start probabilities.  Huge log weights that tie many
    paths can pass the end checks and still give such a row (K = 2,
    M = 4, bid nodes at 1e16 and gap nodes at 0 sum it to 5).  A batch's
    rows are summed as a C-order array, each with the bits of a 1-D sum,
    and the first failing round's raises."""
    if start.ndim > 1:
        with np.errstate(invalid="ignore"):  # a nan sum fails
            sums = np.add.reduce(np.ascontiguousarray(start), axis=-1)
            failed = np.flatnonzero(~(np.abs(sums - 1.0) <= _END_GAP))
        if not len(failed):
            return
        start = start[failed[0]]
    total = float(np.add.reduce(start))
    if not abs(total - 1.0) <= _END_GAP:
        raise WeightOverflow(f"the first bid row's marginals sum to {total!r}, not 1")


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
    After the pass, ``_check_start_row`` raises ``WeightOverflow`` when
    the first bid row's new marginals do not sum to 1 within
    ``_END_GAP``.  A state that raises stays dirty, so every later call
    raises again.  A batch's error does not say which round failed: the
    harness replays a failing block round by round
    (``harness._full_information``)."""
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
        np.minimum(np.exp(marg, out=marg), 1.0, out=marg)
        _check_start_row(marg[..., : g.inv_epsilon + 1])
        state.marg = marg
        state.dirty_lo, state.dirty_hi = g.n_nodes, -1
    return state


def marginals(state: WeightState) -> np.ndarray:
    """Inclusion probability of every node under the current distribution:
    P(h in sampled path) = W(h) F(h) Gamma(h) / Gamma_0, capped at 1; (B, n)
    for a batch, each row bitwise its round's own call.  It is the pass's
    ``marg``, shared until the next pass: do not write into it."""
    return ensure_passes(state).marg


def _steps(w_gap: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The log probability of every walk step: for gap rows ``w_gap``
    (..., K-1, M) and the log Gamma ``gamma`` (..., K-1, M+1) of the bid
    rows above them, entry j - 1 of a row is W(gap j-1) + Gamma(gap j-1)
    - Gamma(bid j), the step from bid level j.  ``np.add`` then
    ``np.subtract`` make the two float operations of that expression in
    Python floats, so the bits are the same."""
    steps = np.add(w_gap, gamma[..., :-1])
    return np.subtract(steps, gamma[..., 1:], out=steps)


def _walk(j: int, steps: list, u: list) -> tuple[int, ...]:
    """The K levels of the walk from level ``j`` of bid row 1, as
    ``sample_path`` describes it: bid row r + 2 is reached down gap row
    r + 1.5, whose step log probabilities (``_steps``) ``steps[r]``
    lists as Python floats, on the uniform ``u[r]``.  Each step taken
    costs one list read and one ``math.exp``."""
    levels = [j]
    try:
        for row, x in zip(steps, u):
            p = 1.0
            while j > 0:
                p *= math.exp(row[j - 1])
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
    the level and reads Gamma(gap) from the bid row.  The step log
    probabilities of every gap row come from one ``_steps`` call and one
    conversion to Python floats; ``_walk`` takes the steps.
    """
    probs = marginals(state)[: state.graph.inv_epsilon + 1]
    _, w_gap, b_bid, _ = state.rows  # row 0 of each stack is the graph's
    u = rng.random(state.graph.k).tolist()
    cum = probs.cumsum()
    j = int(cum.searchsorted(u[0], side="right"))
    if j == len(cum):  # rounding left u[0] at or above the summed probabilities
        j = int(np.flatnonzero(probs)[-1])
    return _walk(j, _steps(w_gap[0], b_bid[0, :-1]).tolist(), u[1:])


def sample_paths(state: WeightState, u: np.ndarray) -> list[tuple[int, ...]]:
    """``sample_path`` on every round of a batch, round i on the uniforms
    ``u[i]`` of a (B, K) array: the start draws of the whole batch at
    once from its marginals, one ``_steps`` call and one conversion to
    Python floats for all its rounds, then each round's ``_walk``.
    Philox's ``random((B, K))`` equals B calls of ``random(K)``, so the
    walks are those of B ``sample_path`` calls, start-level fallback
    included; the earliest failing walk raises."""
    probs = marginals(state)[:, : state.graph.inv_epsilon + 1]
    _, w_gap, b_bid, _ = state.rows
    cum = probs.cumsum(axis=-1)
    top = cum.shape[-1]
    starts = (cum <= u[:, :1]).sum(axis=-1)  # each row's searchsorted(u[i, 0], "right")
    steps = _steps(w_gap[:, 0], b_bid[:, 0, :-1]).tolist()
    walks = []
    for i, (j, row, x) in enumerate(zip(starts.tolist(), steps, u[:, 1:].tolist())):
        if j == top:  # sample_path's fallback, on this round's probabilities
            j = int(np.flatnonzero(probs[i])[-1])
        walks.append(_walk(j, row, x))
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


def allwinner_signal(
    feedback, events: Events, utilities: np.ndarray, state: WeightState
) -> EstimateVector:
    """An ``EstimateVector`` over every observed realized event:
    (w - K) / P(observed).

    ``events`` are the round's firing events, computed from the raw
    profile, with their ``utilities``; P is read from ``marginals(state)``.
    Only the feedback's allocation x and price p are read.  The events
    ascend strictly in (allocation, price), and ``_observed`` is a
    threshold in that order (README gives the proof), so the observed
    ones are a suffix: for x >= 1 it starts at the first event of
    allocation x priced at or above p, which two ``searchsorted`` calls
    find; for x = 0 it is the zero events at beta_K = p (row-1 bid nodes
    below p, utility 0), then every firing event.  Zero-allocation events
    carry w = 0 and the denominator P(x = 0), so every action's expected
    estimate is its utility minus K.  P(observed) is one minus the mass of
    the realized events after the event: the outcomes that hide it, all of
    which the feedback reveals.  One cumsum over the reversed ids gives
    those masses.  The zero events, present at x = 0 only, lead and share
    one pair, so they share the last one's q.  The same order is id order:
    every firing event lies above the zero events, so the ids ascend
    strictly.  The masses are non-negative, so q ascends and its first
    entry is its least.
    """
    g = state.graph
    x, p = feedback.allocation, feedback.price
    if x:
        lo, hi = events.alloc.searchsorted((x, x + 1)).tolist()
        lo += int(events.price[lo:hi].searchsorted(p))
        ids, w, n_zero = events.ids[lo:], utilities[lo:], 0
    else:
        n_zero = int(g.levels.searchsorted(p))
        ids = np.concatenate((g.bid_ids(1)[:n_zero], events.ids))
        w = np.concatenate((np.zeros(n_zero), utilities))
    q = np.ones(len(ids))
    np.cumsum(marginals(state)[ids[:0:-1]], out=q[-2::-1])
    np.subtract(1.0, q[:-1], out=q[:-1])
    if n_zero:
        q[:n_zero] = q[n_zero - 1]
    if len(q) and q[0] <= 0.0:
        i = int(ids[0])
        raise ZeroObservationProbability(f"node {g.label(i)} has zero observation probability")
    return EstimateVector(ids, (w - g.k) / q)


# --- expectation and parameters ------------------------------------------


def expectation(marg: np.ndarray, events: Events, utilities: np.ndarray) -> np.ndarray:
    """The expected utility of each of a block's B rounds: the sum over
    the round's events of its marginal times the event's utility, with
    ``marg`` a (B, n) table, ``events`` the block's events (``starts``
    set) and ``utilities`` theirs.  One ``np.bincount`` over the round of
    each event, weighted by its term, adds each round's terms in event
    order to 0.0, so each round's value is bitwise a Python loop that
    adds its terms to 0.0 (+0.0 when every term is -0.0), whatever
    ``marg``'s memory order.  A block without events gets bincount's
    integer zeros, hence the cast."""
    rounds = np.repeat(np.arange(len(marg)), np.diff(events.starts))
    terms = marg[rounds, events.ids] * utilities
    return np.bincount(rounds, terms, minlength=len(marg)).astype(float, copy=False)


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
