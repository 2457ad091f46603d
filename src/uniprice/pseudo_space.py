"""The bid / bid-gap action graph.

A grid bid profile (b_1 >= ... >= b_K, each a multiple of epsilon = 1/M) is
re-encoded as a sequence of binary variables:

* a *bid node* (k, j) states that the k-th bid equals j*epsilon;
* a *gap node* (k+1/2, j) states that b_k >= (j+1)*epsilon and
  b_{k+1} <= j*epsilon, i.e. the open price band (j*eps, (j+1)*eps) lies
  between two consecutive bids.

Listing the active variables in lexicographic order (k increasing, j
decreasing within a run) yields a path in a DAG whose maximal paths are in
bijection with the grid profiles.  Against a fixed off-grid adversary, each
node either "fires" (its price/allocation event is realized whenever the
node is played) or not, independently of the rest of the path; firing nodes
carry the whole utility of any action containing them.

A node is its id in a ``PseudoGraph``, and an action is the tuple of its
node ids (``PseudoPath``).  ``encode`` / ``decode`` map grid profiles to
paths and back, ``PseudoGraph.successors`` is the one statement of the
successor rule, and ``node_fires`` / ``sub_utility`` are the scalar
references for a single node.  Events are node-id arrays: ``firing_set``
(on a block of rounds) and ``zero_event_set`` return ``Events``,
equal-length arrays of node id, allocation and price, which the
accounting, the signals and the weight update consume; ``event_utilities``
gives all their sub-utilities at once, and ``_observed`` is the one
statement of which events all-winner feedback reveals.  ``realized_event``
gives the played action's one realized event, and so the round's outcome,
from its levels alone; ``realized_events`` gives a block's at once.
Per-node arrays, and stacks of them, are read row by row through
``PseudoGraph.rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .auction_core import BidProfile, Valuation, utility_sum
from .errors import MalformedPath, OffGrid, TooLarge, WrongLength

_BETA_HIGH = 2.0  # sentinel above any bid, stands in for beta_0
_BETA_LOW = -1.0  # sentinel below any bid, stands in for beta_{K+1}
_GAP_RANK = 1.5  # observed-set price of a gap node: above every bid level


PseudoPath = tuple[int, ...]


class PseudoGraph:
    """DAG over all bid/bid-gap nodes for K items on a 1/M grid.

    Rows alternate bid(1), gap(1.5), bid(2), ..., bid(K) in topological
    order: row r is bid row k = r/2 + 1 for even r and gap row k + 1/2,
    k = (r + 1)/2, for odd r.  Bid rows hold levels 0..M, gap
    rows 0..M-1 (a gap needs (j+1)*eps <= 1).  Node ids are row-major: row
    r holds ids ``row_offset[r]`` to ``row_offset[r + 1] - 1``, and ``row``
    / ``level`` give every id's row and grid level.  Bid row k starts at id
    (k-1)(2M+1), with its gap row right after it.
    """

    def __init__(self, k: int, inv_epsilon: int):
        if k < 1:
            raise ValueError("need at least one item")
        if inv_epsilon < 0:
            raise ValueError("inv_epsilon must be non-negative")
        self.k = k
        self.inv_epsilon = inv_epsilon
        self.epsilon = 1.0 / inv_epsilon if inv_epsilon > 0 else 1.0
        m = inv_epsilon
        widths = np.tile((m + 1, m), k)[:-1]
        self.row_offset = np.concatenate(([0], np.cumsum(widths)))
        self.n_nodes = int(self.row_offset[-1])
        self.row = np.repeat(np.arange(2 * k - 1), widths)
        self.level = np.arange(self.n_nodes) - self.row_offset[self.row]
        self.alloc = self.row // 2 + 1  # the allocation floor(k) of each id
        self.levels = np.arange(m + 1) / max(m, 1)  # canonical grid prices
        self.ids = np.arange(self.n_nodes)  # shared: slices of it are read-only id arrays
        self._row_ids = np.split(self.ids, self.row_offset[1:-1])

    def bid_ids(self, kk: int) -> np.ndarray:
        """Node ids of bid row k, levels 0..M.  Shared array; do not mutate."""
        return self._row_ids[2 * kk - 2]

    def gap_ids(self, kk: int) -> np.ndarray:
        """Node ids of gap row k+1/2, levels 0..M-1.  Shared array; do not mutate."""
        return self._row_ids[2 * kk - 1]

    def rows(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of the per-node array ``a``, shaped (..., n): the bid rows
        as a (..., K, M+1) array and the gap rows as a (..., K-1, M) array,
        both with row stride 2M+1 ids.  Leading axes are kept; writes go
        through to ``a``, whatever its strides.  Id i -> n-1-i maps the
        graph onto itself with every edge reversed (bid (k, j) to
        (K+1-k, M-j), gap (k+1/2, j) to (K-k+1/2, M-1-j)), so
        ``rows(a[..., ::-1])`` reads ``a`` on the reversed graph."""
        m = self.inv_epsilon
        lead, step = a.shape[:-1], a.strides[-1]
        strides = a.strides[:-1] + (step * (2 * m + 1), step)
        return (
            as_strided(a, lead + (self.k, m + 1), strides),
            as_strided(a[..., m + 1 :], lead + (self.k - 1, m), strides),
        )

    def label(self, i: int) -> str:
        """``h(k,j)`` for a bid node, ``h(k.5,j)`` for a gap node."""
        r, j = int(self.row[i]), int(self.level[i])
        return f"h({r // 2 + 1}{'.5' if r % 2 else ''},{j})"

    # --- graph structure --------------------------------------------------

    def successors(self, i: int) -> tuple[int, ...]:
        """Possible next nodes of an action after node id ``i``, in
        lexicographic order; bid nodes at k = K are terminal.

        Bid and gap nodes at the same (k, j) share successors: descend one
        gap level, or place the next bid at the current level.  Level 0 can
        only be followed by the next bid at 0.
        """
        r, j = int(self.row[i]), int(self.level[i])
        if r == 2 * self.k - 2:
            return ()
        gap_row = r | 1  # the gap row of this k; the next bid row follows it
        next_bid = int(self.row_offset[gap_row + 1]) + j
        if j == 0:
            return (next_bid,)
        return (int(self.row_offset[gap_row]) + j - 1, next_bid)

    def n_paths(self) -> int:
        """|B_eps| = C(M + K, K): non-increasing K-tuples over M+1 levels."""
        return math.comb(self.inv_epsilon + self.k, self.k)


def build_graph(k: int, inv_epsilon: int) -> PseudoGraph:
    """Construct the action graph for K items on a 1/inv_epsilon grid."""
    return PseudoGraph(k, inv_epsilon)


def encode(bids: BidProfile, graph: PseudoGraph) -> PseudoPath:
    """Map a grid-aligned profile of K bids to its node ids.

    The path holds bid node (k, b_k/eps) for every k, with the gap nodes for
    every whole grid band lying between consecutive bids.
    """
    if len(bids.bids) != graph.k:
        raise WrongLength(f"expected {graph.k} bids, got {len(bids.bids)}")
    levels = graph.levels.searchsorted(bids.bids).tolist()
    for b, j in zip(bids.bids, levels):
        if j > graph.inv_epsilon or graph.levels[j] != b:
            raise OffGrid(f"bid {b} is not on the 1/{graph.inv_epsilon} grid")
    path: list[int] = []
    for kk in range(1, graph.k + 1):
        j = levels[kk - 1]
        path.append(int(graph.bid_ids(kk)[j]))
        if kk < graph.k:
            gaps = graph.gap_ids(kk).tolist()
            path.extend(gaps[jj] for jj in range(j - 1, levels[kk] - 1, -1))
    return tuple(path)


def decode(path: PseudoPath, graph: PseudoGraph) -> BidProfile:
    """Map a path of node ids back to its grid profile, validating that it
    starts on bid row 1, follows ``PseudoGraph.successors`` and ends on a
    terminal node."""
    if not path:
        raise MalformedPath("empty path")
    for i in path:
        if not 0 <= i < graph.n_nodes:
            raise MalformedPath(f"node id {i} is not in the graph")
    label = graph.label
    if graph.row[path[0]] != 0:
        raise MalformedPath(f"path must start at a first-bid node, got {label(path[0])}")
    for prev, i in zip(path, path[1:]):
        if i not in graph.successors(prev):
            raise MalformedPath(f"{label(i)} does not follow {label(prev)}")
    if graph.successors(path[-1]):
        raise MalformedPath(f"path must end at a bid node (K, j), got {label(path[-1])}")
    bid_nodes = [i for i in path if graph.row[i] % 2 == 0]
    return BidProfile(tuple(graph.levels[graph.level[bid_nodes]].tolist()))


def _beta_at(beta: Sequence[float], i: int) -> float:
    """i-th highest adversary bid with the boundary sentinels."""
    if i <= 0:
        return _BETA_HIGH
    if i > len(beta):
        return _BETA_LOW
    return beta[i - 1]


def node_fires(
    i: int, adversary: BidProfile, graph: PseudoGraph
) -> tuple[bool, Optional[float]]:
    """Decide whether node id ``i``'s outcome event is realized against
    ``adversary``.

    Bid node (k, j) fires iff exactly K-k adversary bids exceed j*eps
    (beta_{K-k} > j*eps > beta_{K-k+1}); the price is then the learner's own
    bid j*eps.  Gap node (k+1/2, j) fires iff beta_{K-k} falls inside the
    band (j*eps, (j+1)*eps); the price is that adversary bid, kept exact.
    The indicator is the same for every action containing the node.
    """
    beta = adversary.bids
    kk = len(beta)
    r, j = int(graph.row[i]), int(graph.level[i])
    m = r // 2 + 1
    level = float(graph.levels[j])
    if r % 2 == 0:
        if _beta_at(beta, kk - m) > level > _beta_at(beta, kk - m + 1):
            return True, level
        return False, None
    p = _beta_at(beta, kk - m)
    if level < p < graph.levels[j + 1]:
        return True, p
    return False, None


def sub_utility(
    i: int,
    adversary: BidProfile,
    values: Valuation,
    graph: PseudoGraph,
) -> float:
    """Utility credited to node id ``i``: zero unless the node fires, in
    which case it is the full utility of winning floor(k) items at the
    node's price."""
    fires, price = node_fires(i, adversary, graph)
    if not fires:
        return 0.0
    return utility_sum(values.values, int(graph.row[i]) // 2 + 1, price)


def path_utility(
    path: PseudoPath,
    adversary: BidProfile,
    values: Valuation,
    graph: PseudoGraph,
) -> float:
    """Sum of sub-utilities over the path; equals the LAB clearing utility
    of the decoded profile exactly."""
    total = 0.0
    for i in path:
        total += sub_utility(i, adversary, values, graph)
    return total


def firing_node(
    path: PseudoPath, adversary: BidProfile, graph: PseudoGraph
) -> Optional[int]:
    """The id of the unique node on the path whose event is realized, if any.

    Absent exactly when the decoded action wins nothing.
    """
    for i in path:
        fires, _ = node_fires(i, adversary, graph)
        if fires:
            return i
    return None


def _observed(x, p, allocation, price):
    """The observed-set rule: an outcome of x items at price p reveals a
    realized event of ``allocation`` items at ``price`` iff
    2x + p <= 2*allocation + price.

    Prices stay below 2, so the rank 2x + p orders by allocation first and
    price next; the test compares the pairs in that order, so no rounding
    enters.  The all-winner feedback shows every adversary bid above the
    price, which decides every event of a larger allocation and those of
    the same allocation at or above the price.  Only x = 0 (then
    p = beta_K) reveals the zero-allocation events (allocation 0, price
    beta_K).  Works elementwise on arrays.
    """
    return (x < allocation) | ((x == allocation) & (p <= price))


def observed_set_membership(i: int, outcome, graph: PseudoGraph) -> bool:
    """Whether all-winner feedback for ``outcome`` reveals enough to evaluate
    node id ``i``'s sub-utility: ``_observed`` with the node's allocation
    floor(k) and its level as price, or ``_GAP_RANK`` for a gap node.

    ``outcome`` needs only ``allocation`` and ``price`` attributes.  A zero
    allocation reveals every node.  A row-1 bid node whose zero-allocation
    event is realized (j*eps < beta_K, see ``zero_event_set``) is observed
    exactly when x = 0: under x >= 1, j*eps < beta_K <= p.
    """
    r, j = int(graph.row[i]), int(graph.level[i])
    price = graph.levels[j] if r % 2 == 0 else _GAP_RANK
    return bool(_observed(outcome.allocation, outcome.price, r // 2 + 1, price))


def enumerate_paths(graph: PseudoGraph, cap: int = 10**6) -> Iterator[PseudoPath]:
    """Yield every maximal path exactly once, in lexicographic order: start
    levels descending, then ``PseudoGraph.successors`` in their order.

    Raises TooLarge when the instance holds more than ``cap`` actions.
    """
    total = graph.n_paths()
    if total > cap:
        raise TooLarge(f"{total} paths exceed the cap of {cap}")

    def walk(prefix: list[int]) -> Iterator[PseudoPath]:
        succs = graph.successors(prefix[-1])
        if not succs:
            yield tuple(prefix)
            return
        for nxt in succs:
            prefix.append(nxt)
            yield from walk(prefix)
            prefix.pop()

    for start in graph.bid_ids(1)[::-1].tolist():
        yield from walk([start])


@dataclass(frozen=True)
class Events:
    """Realized events as equal-length arrays: node id, the allocation the
    event credits, and its price.  ``firing_set`` lists a block of rounds
    one after another and sets ``starts``: round t's events are entries
    ``starts[t]`` to ``starts[t + 1] - 1``; ``events[a:b]`` slices out one
    round, ``events[mask]`` selects.  Iterates as (id, allocation, price)
    triples of Python scalars; ``+`` joins two sets of one round's events."""

    ids: np.ndarray
    alloc: np.ndarray
    price: np.ndarray
    starts: Optional[np.ndarray] = None

    def __getitem__(self, s) -> "Events":
        return Events(self.ids[s], self.alloc[s], self.price[s])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, int, float]]:
        return zip(self.ids.tolist(), self.alloc.tolist(), self.price.tolist())

    def __add__(self, other: "Events") -> "Events":
        return Events(
            np.concatenate((self.ids, other.ids)),
            np.concatenate((self.alloc, other.alloc)),
            np.concatenate((self.price, other.price)),
        )


def event_utilities(events: Events, values: Valuation, offset: float = 0.0) -> np.ndarray:
    """``utility_sum`` of every event's allocation at its price plus
    ``offset``, capped at 1.

    The cap gives a level-M bid node its market price in perturb mode,
    where ``apply_tie_offset`` caps the played bids at 1; node prices never
    exceed 1, so at offset 0 it changes nothing.  Row l + 1 of a
    (K + 1, events) table holds v_l - price where the event credits more
    than l items and 0.0 elsewhere, under a row of 0.0; its cumsum down the
    rows adds each event's terms from 0.0 in ``utility_sum``'s order (a
    partial sum is never -0.0, so adding 0.0 keeps its bits), so the
    values are bitwise the same, in any event order.
    """
    price = np.minimum(events.price + offset, 1.0)
    k = len(values.values)
    terms = np.zeros((k + 1, len(price)))
    credited = np.arange(k)[:, None] < events.alloc
    np.subtract(np.array(values.values)[:, None], price, out=terms[1:], where=credited)
    return terms.cumsum(axis=0, out=terms)[-1].copy()


def zero_event_set(beta_k: float, graph: PseudoGraph) -> Events:
    """Row-1 bid nodes whose zero-allocation event is realized: j*eps < beta_K.

    An action whose top bid is j*eps sits below every adversary bid and
    wins nothing, so none of its nodes fires (see ``node_fires``).  The
    event has allocation 0 at price beta_K, so its sub-utility is 0; it
    gives such actions the node on which the partial-feedback estimators
    apply their -K shift.  With it, every action holds exactly one realized
    event: its firing node or this one.  All its events share the pair
    (0, beta_K), so ``zero_event_set + firing_set`` ascends by that pair.
    """
    n = int(np.searchsorted(graph.levels, beta_k, side="left"))
    return Events(graph.bid_ids(1)[:n], np.zeros(n, dtype=int), np.full(n, beta_k))


def realized_event(levels, bids, beta, graph: PseudoGraph) -> tuple[int, int, float]:
    """The one realized event of the grid action with bid ``levels``,
    priced ``bids``, against K off-grid non-increasing bids ``beta``: its
    node id, allocation x and price, bitwise the LAB clearing's.  The
    harness calls it once a round under bandit and all-winner feedback;
    ``realized_events`` is the same rule on a block of rounds.

    x = #{k : b_k > beta_{K+1-k}}, the first k where the test fails, as
    b_k - beta_{K+1-k} falls with k; bids tied at b_x count up to x, LAB's
    cap.  x = 0 gives the zero event of (1, levels[0]) at beta_K.  Else,
    with beta_0 = +inf, bid node (x, levels[x-1]) fires at b_x if
    b_x < beta_{K-x}, and otherwise gap node x+1/2 in beta_{K-x}'s band,
    at beta_{K-x} (``node_fires``)."""
    k = graph.k
    x = 0
    while x < k and bids[x] > beta[-1 - x]:
        x += 1
    if x == 0:
        return int(graph.bid_ids(1)[levels[0]]), 0, beta[-1]
    if x == k or bids[x - 1] < beta[-1 - x]:
        return int(graph.bid_ids(x)[levels[x - 1]]), x, bids[x - 1]
    p = beta[-1 - x]
    return int(graph.gap_ids(x)[graph.levels.searchsorted(p) - 1]), x, p


def realized_events(levels: np.ndarray, beta: np.ndarray, graph: PseudoGraph) -> Events:
    """``realized_event`` on every round of a block: the played bid
    ``levels`` and the off-grid profiles ``beta`` are (B, K) arrays, and
    round i's (id, x, price) is entry i of the ``Events``, bitwise
    ``realized_event``'s on that row (its bids are ``graph.levels`` at
    the levels).  x takes K column steps, each keeping the rounds whose
    bids so far all beat their adversary bid; the node and price then
    follow ``realized_event``'s cases, with beta_0 = +inf as a last
    column of the reversed profiles.  A gap node's price, beta_{K-x},
    lies above bid x + 1, a level, so its band, ``searchsorted`` - 1, is
    never negative."""
    k, m = graph.k, graph.inv_epsilon
    bids = graph.levels[levels]
    rounds = np.arange(len(bids))
    against = np.full((len(bids), k + 1), np.inf)
    against[:, :k] = beta[:, ::-1]  # column c: beta_{K-c}, the bid b_{c+1} must beat
    x = np.zeros(len(bids), dtype=int)
    beats = np.ones(len(bids), dtype=bool)
    for c in range(k):
        beats &= bids[:, c] > against[:, c]
        x += beats
    last = np.maximum(x - 1, 0)  # bid x's column; bid 1's at x = 0
    bid, above = bids[rounds, last], against[rounds, x]
    on_bid = bid < above
    sets = on_bid & (x > 0)  # the learner's bid b_x sets the price
    gap = m + graph.levels.searchsorted(above)  # gap row x+1/2 starts M+1 ids after bid row x
    ids = last * (2 * m + 1) + np.where(on_bid | (x == 0), levels[rounds, last], gap)
    return Events(ids, x, np.where(sets, bid, above))


def firing_set(bids, graph: PseudoGraph) -> Events:
    """All nodes that fire against each profile of ``bids``, a (T, K)
    array-like of non-increasing profiles in [0, 1] (K bids are one round),
    with the allocation floor(k) and the price of each (see
    ``node_fires``).  The rounds follow one another, each in id order, and
    ``starts`` holds the T + 1 round starts.

    Per allocation k, with hi the first level at or above beta_{K-k}
    (``searchsorted`` over ``graph.levels``), the bid row fires on the
    levels above beta_{K-k+1} and below hi, and the gap row k+1/2 in band
    hi - 1 iff beta_{K-k} lies strictly inside it: 0 < hi and beta_{K-k}
    is no level, which is when the levels at or below it, row k+1's lower
    end, number hi too.  So at most 2(K^2 + M) nodes fire a round, in
    strictly ascending (allocation, price) order.  The rule fills a dense
    (T, n) fire mask and price table through ``PseudoGraph.rows``; the
    mask's entries in row-major order are the events.
    """
    beta = np.array(bids, ndmin=2)
    k, m, levels, n = graph.k, graph.inv_epsilon, graph.levels, graph.n_nodes
    # column k - 1 of each: bid row k fires on levels lo .. hi - 1
    lo = levels.searchsorted(beta[:, ::-1], side="right")[..., None]
    above = beta[:, -2::-1]  # beta_{K-k} for k < K
    hi = np.full(lo.shape, m + 1)  # beta_0 lies above every level
    hi[:, :-1, 0] = levels.searchsorted(above, side="left")
    fire = np.zeros((len(beta), n), dtype=bool)
    fire_bid, fire_gap = graph.rows(fire)
    j = np.arange(m + 1)
    np.greater_equal(j, lo, out=fire_bid)
    fire_bid &= j < hi
    hi_gap = hi[:, :-1]
    np.equal(j[1:], hi_gap, out=fire_gap)
    fire_gap &= hi_gap == lo[:, 1:]
    table = np.empty(fire.shape)
    price_bid, price_gap = graph.rows(table)
    price_bid[...] = levels
    price_gap[...] = above[..., None]
    flat = np.flatnonzero(fire)
    ids = flat % n
    starts = flat.searchsorted(np.arange(0, len(beta) * n + 1, n))
    return Events(ids, graph.alloc[ids], table.ravel()[flat], starts)
