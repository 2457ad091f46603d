"""Component-based exponential weighting on the bid/bid-gap graph.

One weight per node, updated multiplicatively from per-node utility signals.
Actions are sampled exactly from the induced product distribution with a
weight-pushing pass: a backward accumulator Gamma(h) sums the weight
products of all path suffixes after h, so the walk start / transition
probabilities W(h') Gamma(h') / Gamma(h) reproduce path probabilities
proportional to the product of node weights.  The forward accumulator F is
the same recursion on the reversed graph, and W F Gamma / Gamma_0 gives
exact node inclusion probabilities, which the partial-feedback estimators
divide by.  Both passes recompute only the rows that the updates since the
last pass reached (``WeightState``'s dirty range), with the bits of a full
pass; a log weight that leaves floating-point range raises
``WeightOverflow``.

Signals are keyed by node id: each maps the ids of a round's realized
events (``pseudo_space.Events``) to their estimates, and ``update_weights``
scatter-adds eta times them into the log weights.  All-winner reads the
round's events, computed from the raw profile; the proven and tested
``_observed`` filter hides the rest.  Everything runs in the log domain;
the raw accumulators overflow after a few thousand rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .auction_core import Valuation, utility_sum
from .errors import (
    HorizonTooShort,
    WeightOverflow,
    ZeroMarginal,
    ZeroObservationProbability,
)
from .pseudo_space import Events, PseudoGraph, PseudoPath, _observed, zero_event_set


class FeedbackMode(Enum):
    FULL_INFORMATION = "full"
    BANDIT = "bandit"
    ALL_WINNER = "allwinner"


#: Sparse per-node signal fed to the weight update: node id -> value.
EstimateVector = dict[int, float]


@dataclass
class WeightState:
    """Log-domain node weights plus the backward/forward accumulators.

    ``w_rows`` and ``b_rows`` are the (bid, gap) row views of ``log_w`` and
    ``backward`` (see ``PseudoGraph.rows``), ``w_rev`` and ``f_rev`` those
    of ``log_w[::-1]`` and ``forward[::-1]``, the reversed graph's; all are
    built once, and the arrays are updated in place, never replaced.

    ``dirty_lo`` and ``dirty_hi`` are the lowest and highest node id
    whose weight changed since the last ``ensure_passes``, or n and -1
    when none did; a new state is all dirty.  ``update_weights`` widens
    the range.  Code that writes ``log_w`` directly after a pass must call
    ``mark_all_dirty``.
    """

    graph: PseudoGraph
    log_w: np.ndarray
    backward: np.ndarray
    forward: np.ndarray
    log_gamma0: float = math.nan
    dirty_lo: int = field(init=False)
    dirty_hi: int = field(init=False)
    w_rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    b_rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    w_rev: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    f_rev: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = self.graph.rows
        self.w_rows = rows(self.log_w)
        self.b_rows = rows(self.backward)
        self.w_rev = rows(self.log_w[::-1])
        self.f_rev = rows(self.forward[::-1])
        self.mark_all_dirty()

    def mark_all_dirty(self) -> None:
        """Make the next pass recompute every row."""
        self.dirty_lo, self.dirty_hi = 0, self.graph.n_nodes - 1


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
    m = float(np.maximum.reduce(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.add.reduce(np.exp(a - m))))


def _chain_scan(
    op: np.ufunc, mult: np.ndarray, prefix: np.ndarray, add: np.ndarray, out: np.ndarray
) -> None:
    """out[0] = add[0], out[i] = op(mult[i-1] + out[i-1], add[i]) along the
    last axis, for the associative ``op`` ``np.logaddexp`` or
    ``np.maximum``; leading axes are independent chains.

    ``prefix`` holds 0 and the running sums of ``mult``, so that
    out[i] = prefix[i] + op-accumulate over i' <= i of (add[i'] - prefix[i'])
    and numpy does the scan.  A -inf in ``mult`` cuts the chain, which the
    prefix form cannot express (it would subtract -inf); such chains run
    the recursion step by step.  The two forms round differently, so each
    chain takes its form from its own prefix, whatever the others hold.
    ``out`` may be ``add``.
    """
    # math.isfinite keeps the passes' one-chain calls cheap
    if math.isfinite(prefix[-1]) if prefix.ndim == 1 else np.isfinite(prefix[..., -1]).all():
        np.subtract(add, prefix, out=out)
        op.accumulate(out, axis=-1, out=out)
        np.add(out, prefix, out=out)
        return
    # a 0-d mask indexes one chain as a (1, n) stack
    finite = np.isfinite(prefix[..., -1])
    cut = ~finite
    if finite.any():
        scan = add[finite] - prefix[finite]
        op.accumulate(scan, axis=-1, out=scan)
        out[finite] = scan + prefix[finite]
    a, mu = add[cut], mult[cut]
    for i in range(1, a.shape[-1]):
        a[:, i] = op(mu[:, i - 1] + a[:, i - 1], a[:, i])
    out[cut] = a


def _suffix_scan(
    op: np.ufunc, w_bid: np.ndarray, w_gap: np.ndarray, out: np.ndarray, rows: int | None = None
) -> None:
    """Fill ``out``, shaped like the bid rows ``w_bid`` (..., K, M+1), with
    the suffix recursion on a node array's row views: 0 on the last bid
    row, and bid row r the ``op``-scan along gap row r of
    ``w_bid[r+1] + out[r+1]``; leading axes are independent node arrays.
    ``np.logaddexp`` gives the backward pass, ``np.maximum`` the best path
    suffix.  Bid and gap nodes at the same (k, j) share successors, so gap
    row r's value is bid row r's first M entries.  One cumsum gives every
    gap row's prefix sums.

    Only bid rows 0..``rows``-1 (default: all) are recomputed; the rest
    keep their values, except that the last row's 0 is always written.
    """
    if rows is None:
        rows = w_gap.shape[-2]
    prefix = np.zeros(w_gap.shape[:-2] + (rows, w_gap.shape[-1] + 1))
    w_gap[..., :rows, :].cumsum(axis=-1, out=prefix[..., 1:])
    out[..., -1, :] = 0.0
    for r in range(rows - 1, -1, -1):
        row = out[..., r, :]
        np.add(w_bid[..., r + 1, :], out[..., r + 1, :], out=row)
        _chain_scan(op, w_gap[..., r, :], prefix[..., r, :], row, row)


def backward_pass(state: WeightState, dirty_row: int) -> WeightState:
    """Fill Gamma: suffix weight products.  Gamma = 1 on the last bid row;
    elsewhere Gamma(h) = sum over successors h' of W(h') Gamma(h'), which
    ``_suffix_scan`` computes in the log domain.

    Bid row k's Gamma reads only the weights of the rows after it, so only
    the bid rows above ``dirty_row`` (the highest ``graph.row`` whose
    weights changed) are recomputed; log Gamma_0 always is.
    """
    w_bid, w_gap = state.w_rows
    b_bid, b_gap = state.b_rows
    rows = (dirty_row + 1) // 2  # bid row r sits at graph row 2r
    _suffix_scan(np.logaddexp, w_bid, w_gap, b_bid, rows)
    b_gap[:rows] = b_bid[:rows, :-1]  # gap (k, j) shares bid (k, j)'s successors
    state.log_gamma0 = _logsumexp(w_bid[0] + b_bid[0])
    return state


def forward_pass(state: WeightState, dirty_row: int) -> WeightState:
    """Fill F: prefix weight products, without the node's own weight as
    Gamma leaves it out.  F = 1 on the first bid row; elsewhere F(h) = sum
    over predecessors h' of W(h') F(h').  Predecessors are the reversed
    graph's successors (see ``PseudoGraph.rows``), so F is Gamma of the
    reversed graph, ``_suffix_scan`` on ``w_rev``.  Graph row ``dirty_row``
    (the lowest whose weights changed) is reversed row 2K-2-``dirty_row``;
    the bid rows above it there are recomputed.
    """
    w_bid, w_gap = state.w_rev
    f_bid, f_gap = state.f_rev
    rows = (2 * state.graph.k - 1 - dirty_row) // 2
    _suffix_scan(np.logaddexp, w_bid, w_gap, f_bid, rows)
    f_gap[:rows] = f_bid[:rows, :-1]
    return state


#: Largest gap between log Gamma_0 and the same total from the last bid row:
#: an error d in a log is a relative error of about d in every probability
#: read.  Runs in float range stay below 1e-13; weights past it, far above 1.
_END_GAP = 1e-6


def ensure_passes(state: WeightState) -> WeightState:
    """Bring Gamma, F and log Gamma_0 up to date with ``log_w``: run both
    passes on the dirty rows, then mark the state clean.  A state whose
    weights overflow stays dirty, so every later call raises again."""
    if state.dirty_lo <= state.dirty_hi:
        row = state.graph.row
        backward_pass(state, int(row[state.dirty_hi]))
        forward_pass(state, int(row[state.dirty_lo]))
        log_g0 = state.log_gamma0
        if not math.isfinite(log_g0):
            raise WeightOverflow(f"log Gamma_0 is {log_g0} after the weight update")
        log_end = _logsumexp(state.w_rev[0][0] + state.f_rev[0][0])
        if not abs(log_end - log_g0) <= _END_GAP:
            raise WeightOverflow(
                f"log Gamma_0 is {log_g0} from the first bid row but {log_end} from the last"
            )
        state.dirty_lo, state.dirty_hi = state.graph.n_nodes, -1
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
    so the walk only tracks the level.
    """
    ensure_passes(state)
    w_bid, w_gap = state.w_rows
    b_bid, b_gap = state.b_rows
    u = rng.random(state.graph.k).tolist()
    probs = np.exp(w_bid[0] + b_bid[0] - state.log_gamma0)
    cum = probs.cumsum()
    j = int(cum.searchsorted(u[0], side="right"))
    if j == len(cum):
        j = int(np.flatnonzero(probs)[-1])
    levels = [j]
    # log of each gap step's probability, gap level j - 1 from bid level j
    steps = (w_gap + b_gap - b_bid[:-1, 1:]).tolist()
    try:
        for row, x in zip(steps, u[1:]):
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
    """Multiply each signalled node's weight by exp(eta * signal): a
    scatter-add into the log weights, which widens the dirty range to the
    signalled ids."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = len(signal)
    ids = np.fromiter(signal, dtype=np.intp, count=n)
    state.log_w[ids] += eta * np.fromiter(signal.values(), dtype=float, count=n)
    if n:
        ends = sorted(signal)  # faster than min and max on int keys
        if ends[0] < state.dirty_lo:
            state.dirty_lo = ends[0]
        if ends[-1] > state.dirty_hi:
            state.dirty_hi = ends[-1]
    return state


# --- feedback signals ---------------------------------------------------


def full_info_signal(events: Events, utilities: np.ndarray) -> EstimateVector:
    """True sub-utility of every firing node: ``events`` is the round's
    ``firing_set`` and ``utilities`` its ``event_utilities``.  All other
    entries are zero and omitted."""
    return dict(zip(events.ids.tolist(), utilities.tolist()))


def bandit_signal(
    levels: Sequence[int], feedback, state: WeightState, values: Valuation, marg: np.ndarray
) -> EstimateVector:
    """Single-entry estimate (w - K) / P(node played) at the played node
    whose event is realized.

    ``levels`` are the played action's K bid levels (``sample_path``'s
    output); ``feedback`` needs only ``allocation`` and ``price``; ``marg``
    is ``marginals(state)``.  A won allocation x >= 1 realizes the fired
    node, with w the utility of x items at the price: the bid node at the
    learner's x-th bid if the price equals it, else the row x+1/2 gap node
    in the band below the first level at or above the price
    (``firing_set``'s rule).  A zero allocation realizes the
    zero-allocation event of the played top-bid node (1, j), with w = 0,
    so the entry is -K / P((1, j)).  Every action holds exactly one
    realized event, so the expected estimate of every action is its
    utility minus K.  The constant -K shift keeps every entry non-positive,
    which controls the estimator's range; the bias is the same for all
    actions and cancels in the regret.
    """
    x, p = feedback.allocation, feedback.price
    g = state.graph
    if x == 0:
        i, w = int(g.bid_ids(1)[levels[0]]), 0.0
    else:
        j = levels[x - 1]
        if p == g.levels[j]:
            i = int(g.bid_ids(x)[j])
        else:
            i = int(g.gap_ids(x)[g.levels.searchsorted(p) - 1])
        w = utility_sum(values.values, x, p)
    p_node = float(marg[i])
    if p_node <= 0.0:
        raise ZeroMarginal(f"played node {g.label(i)} has zero inclusion probability")
    return {i: (w - g.k) / p_node}


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
    """Estimates at every observed realized event: (w - K) / P(observed).

    ``events`` are the round's firing events, computed from the raw
    profile, with their ``utilities``; ``marg`` is ``marginals(state)``.
    ``_observed_events`` keeps the ones the feedback reveals (README gives
    the proof).  Zero-allocation events carry w = 0 and the denominator
    P(x = 0), so every action's expected estimate is its utility minus K.
    P(observed) is one minus the mass of the realized events after the
    event's run of equal (allocation, price) pairs, in which order they
    ascend: the outcomes that hide it, all of which the feedback reveals.
    """
    g = state.graph
    seen, w = _observed_events(feedback, events, utilities, g)
    ids, alloc, price = seen.ids, seen.alloc, seen.price
    above = np.concatenate((np.cumsum(marg[ids][::-1])[::-1], [0.0]))
    n = len(ids)
    # the index where each run of equal pairs after the first starts
    runs = np.flatnonzero((alloc[1:] != alloc[:-1]) | (price[1:] != price[:-1])) + 1
    q = 1.0 - above[np.append(runs, n)[runs.searchsorted(np.arange(n), side="right")]]
    if np.any(q <= 0.0):
        i = int(ids[np.argmax(q <= 0.0)])
        raise ZeroObservationProbability(f"node {g.label(i)} has zero observation probability")
    return dict(zip(ids.tolist(), ((w - g.k) / q).tolist()))


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
