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

Nodes are stored as (k2, j) with k2 = 2k, so even k2 means a bid node and
odd k2 a gap node.  ``PseudoNode`` serves paths (``encode``, ``decode``)
and the scalar references ``node_fires`` / ``sub_utility``.  Within a
round, events are node ids: ``firing_set`` and ``zero_event_set`` return
``Events``, equal-length arrays of node id, allocation and price, which the
accounting, the signals and the weight update consume; ``event_utilities``
gives all their sub-utilities at once, and ``_observed`` is the one
statement of which events all-winner feedback reveals.  Per-node arrays
are read row by row through ``PseudoGraph.rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .auction_core import BidProfile, Valuation, grid_level, utility_sum
from .errors import MalformedPath, OffGrid, TooLarge

_BETA_HIGH = 2.0  # sentinel above any bid, stands in for beta_0
_BETA_LOW = -1.0  # sentinel below any bid, stands in for beta_{K+1}
_GAP_RANK = 1.5  # observed-set price of a gap node: above every bid level


@dataclass(frozen=True)
class PseudoNode:
    """One bid or bid-gap variable; k2 = 2k, j the grid level."""

    k2: int
    j: int

    @property
    def is_bid(self) -> bool:
        return self.k2 % 2 == 0

    @property
    def k_floor(self) -> int:
        """floor(k): the allocation credited when this node fires."""
        return self.k2 // 2

    def __repr__(self) -> str:
        if self.is_bid:
            return f"h({self.k2 // 2},{self.j})"
        return f"h({self.k2 // 2}.5,{self.j})"


PseudoPath = tuple[PseudoNode, ...]


class PseudoGraph:
    """DAG over all bid/bid-gap nodes for K items on a 1/M grid.

    Rows alternate bid(1), gap(1.5), bid(2), ..., bid(K) in topological
    order; row r holds nodes with k2 = r + 2.  Bid rows hold levels 0..M,
    gap rows 0..M-1 (a gap needs (j+1)*eps <= 1).  Node ids are row-major:
    row r holds ids ``row_offset[r]`` to ``row_offset[r + 1] - 1``, and
    ``row`` / ``level`` give every id's row and grid level.  Bid row k
    starts at id (k-1)(2M+1), with its gap row right after it.
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
        self.levels = np.arange(m + 1) / max(m, 1)  # canonical grid prices
        self._row_ids = np.split(np.arange(self.n_nodes), self.row_offset[1:-1])

    # --- node <-> id -----------------------------------------------------

    def node_id(self, node: PseudoNode) -> int:
        return int(self.row_offset[node.k2 - 2]) + node.j

    def node_from_id(self, node_id: int) -> PseudoNode:
        if not 0 <= node_id < self.n_nodes:
            raise KeyError(node_id)
        return PseudoNode(int(self.row[node_id]) + 2, int(self.level[node_id]))

    def bid_ids(self, kk: int) -> np.ndarray:
        """Node ids of bid row k, levels 0..M.  Shared array; do not mutate."""
        return self._row_ids[2 * kk - 2]

    def gap_ids(self, kk: int) -> np.ndarray:
        """Node ids of gap row k+1/2, levels 0..M-1.  Shared array; do not mutate."""
        return self._row_ids[2 * kk - 1]

    def rows(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of the contiguous per-node array ``a``: the bid rows as a
        (K, M+1) array and the gap rows as a (K-1, M) array, both with row
        stride 2M+1 ids.  Writes go through to ``a``."""
        m = self.inv_epsilon
        step = a.strides[0]
        strides = (step * (2 * m + 1), step)
        return (
            np.ndarray((self.k, m + 1), a.dtype, a, 0, strides),
            np.ndarray((self.k - 1, m), a.dtype, a, step * (m + 1), strides),
        )

    def nodes(self) -> list[PseudoNode]:
        """Every node, in id order."""
        return [
            PseudoNode(r + 2, j) for r, j in zip(self.row.tolist(), self.level.tolist())
        ]

    # --- graph structure --------------------------------------------------

    def start_nodes(self) -> list[PseudoNode]:
        """Entry nodes h_{1,j}, listed lexicographically (j descending)."""
        return [PseudoNode(2, j) for j in range(self.inv_epsilon, -1, -1)]

    def successors(self, node: PseudoNode) -> tuple[PseudoNode, ...]:
        """Possible next elements of an action after ``node``; bid nodes at
        k = K are terminal (see ``_next_nodes``)."""
        if node.k2 == 2 * self.k:
            return ()
        return _next_nodes(node)

    def n_paths(self) -> int:
        """|B_eps| = C(M + K, K): non-increasing K-tuples over M+1 levels."""
        return math.comb(self.inv_epsilon + self.k, self.k)


def _next_nodes(node: PseudoNode) -> tuple[PseudoNode, ...]:
    """Successor rule of the action graph, without the terminal row.

    Bid and gap nodes at the same (k, j) share successors: descend one gap
    level, or place the next bid at the current level.  Level 0 can only
    be followed by the next bid at 0.
    """
    kk = node.k2 // 2
    if node.j == 0:
        return (PseudoNode(2 * (kk + 1), 0),)
    return (PseudoNode(2 * kk + 1, node.j - 1), PseudoNode(2 * (kk + 1), node.j))


def build_graph(k: int, inv_epsilon: int) -> PseudoGraph:
    """Construct the action graph for K items on a 1/inv_epsilon grid."""
    return PseudoGraph(k, inv_epsilon)


def encode(bids: BidProfile, inv_epsilon: int) -> PseudoPath:
    """Map a grid-aligned profile to its node sequence.

    The path holds bid node (k, b_k/eps) for every k, with the gap nodes for
    every whole grid band lying between consecutive bids.
    """
    epsilon = 1.0 / inv_epsilon if inv_epsilon > 0 else 1.0
    levels = []
    for b in bids.bids:
        j = grid_level(b, epsilon)
        if j is None or not (0 <= j <= inv_epsilon):
            raise OffGrid(f"bid {b} is not on the 1/{inv_epsilon} grid")
        levels.append(j)
    k = len(levels)
    path: list[PseudoNode] = []
    for kk in range(1, k + 1):
        path.append(PseudoNode(2 * kk, levels[kk - 1]))
        if kk < k:
            for j in range(levels[kk - 1] - 1, levels[kk] - 1, -1):
                path.append(PseudoNode(2 * kk + 1, j))
    return tuple(path)


def decode(path: PseudoPath, inv_epsilon: int) -> BidProfile:
    """Map a node sequence back to its grid profile, validating structure."""
    epsilon = 1.0 / inv_epsilon if inv_epsilon > 0 else 1.0
    if not path:
        raise MalformedPath("empty path")
    first = path[0]
    if first.k2 != 2 or not (0 <= first.j <= inv_epsilon):
        raise MalformedPath(f"path must start at a first-bid node, got {first}")
    levels = {}
    prev: Optional[PseudoNode] = None
    k_max = 0
    for node in path:
        if node.j < 0 or node.j > (inv_epsilon if node.is_bid else inv_epsilon - 1):
            raise MalformedPath(f"node {node} outside the level range")
        if prev is not None and node not in _next_nodes(prev):
            raise MalformedPath(f"{node} does not follow {prev}")
        if node.is_bid:
            kk = node.k2 // 2
            if kk in levels:
                raise MalformedPath(f"duplicate bid node for k={kk}")
            levels[kk] = node.j
            k_max = max(k_max, kk)
        prev = node
    if prev is None or not prev.is_bid:
        raise MalformedPath("path must end at a bid node")
    if sorted(levels) != list(range(1, k_max + 1)):
        raise MalformedPath("path must contain one bid node per k")
    bids = tuple(levels[kk] / max(inv_epsilon, 1) for kk in range(1, k_max + 1))
    return BidProfile(bids)


def _beta_at(beta: Sequence[float], i: int) -> float:
    """i-th highest adversary bid with the boundary sentinels."""
    if i <= 0:
        return _BETA_HIGH
    if i > len(beta):
        return _BETA_LOW
    return beta[i - 1]


def node_fires(
    node: PseudoNode, adversary: BidProfile, epsilon: float
) -> tuple[bool, Optional[float]]:
    """Decide whether the node's outcome event is realized against ``adversary``.

    Bid node (k, j) fires iff exactly K-k adversary bids exceed j*eps
    (beta_{K-k} > j*eps > beta_{K-k+1}); the price is then the learner's own
    bid j*eps.  Gap node (k+1/2, j) fires iff beta_{K-k} falls inside the
    band (j*eps, (j+1)*eps); the price is that adversary bid, kept exact.
    The indicator is the same for every action containing the node.
    """
    beta = adversary.bids
    kk = len(beta)
    m = node.k2 // 2
    grid = round(1.0 / epsilon)
    if node.is_bid:
        level = node.j / grid
        if _beta_at(beta, kk - m) > level > _beta_at(beta, kk - m + 1):
            return True, level
        return False, None
    p = _beta_at(beta, kk - m)
    if node.j / grid < p < (node.j + 1) / grid:
        return True, p
    return False, None


def sub_utility(
    node: PseudoNode,
    adversary: BidProfile,
    values: Valuation,
    epsilon: float,
) -> float:
    """Utility credited to a single node: zero unless the node fires, in
    which case it is the full utility of winning floor(k) items at the
    node's price."""
    fires, price = node_fires(node, adversary, epsilon)
    if not fires:
        return 0.0
    return utility_sum(values.values, node.k_floor, price)


def path_utility(
    path: PseudoPath,
    adversary: BidProfile,
    values: Valuation,
    epsilon: float,
) -> float:
    """Sum of sub-utilities over the path; equals the LAB clearing utility
    of the decoded profile exactly."""
    total = 0.0
    for node in path:
        total += sub_utility(node, adversary, values, epsilon)
    return total


def firing_node(
    path: PseudoPath, adversary: BidProfile, epsilon: float
) -> Optional[PseudoNode]:
    """The unique node on the path whose event is realized, if any.

    Absent exactly when the decoded action wins nothing.
    """
    for node in path:
        fires, _ = node_fires(node, adversary, epsilon)
        if fires:
            return node
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


def observed_set_membership(node: PseudoNode, outcome, epsilon: float) -> bool:
    """Whether all-winner feedback for ``outcome`` reveals enough to evaluate
    the node's sub-utility: ``_observed`` with the node's allocation floor(k)
    and its level as price, or ``_GAP_RANK`` for a gap node.

    ``outcome`` needs only ``allocation`` and ``price`` attributes.  A zero
    allocation reveals every node.  A row-1 bid node whose zero-allocation
    event is realized (j*eps < beta_K, see ``zero_event_set``) is observed
    exactly when x = 0: under x >= 1, j*eps < beta_K <= p.
    """
    price = node.j / round(1.0 / epsilon) if node.is_bid else _GAP_RANK
    return bool(_observed(outcome.allocation, outcome.price, node.k_floor, price))


def enumerate_paths(graph: PseudoGraph, cap: int = 10**6) -> Iterator[PseudoPath]:
    """Yield every maximal path exactly once, in lexicographic order.

    Raises TooLarge when the instance holds more than ``cap`` actions.
    """
    total = graph.n_paths()
    if total > cap:
        raise TooLarge(f"{total} paths exceed the cap of {cap}")

    def walk(prefix: list[PseudoNode]) -> Iterator[PseudoPath]:
        succs = graph.successors(prefix[-1])
        if not succs:
            yield tuple(prefix)
            return
        for nxt in succs:
            prefix.append(nxt)
            yield from walk(prefix)
            prefix.pop()

    for start in graph.start_nodes():
        yield from walk([start])


@dataclass(frozen=True)
class Events:
    """Realized events of one round as equal-length arrays: node id, the
    allocation the event credits, and its price.  Iterates as
    (id, allocation, price) triples of Python scalars."""

    ids: np.ndarray
    alloc: np.ndarray
    price: np.ndarray

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
    ``offset``, in K elementwise steps.

    ``firing_set`` and ``zero_event_set`` list events by ascending
    allocation, so step l adds v_l - price to the suffix of events that
    credit more than l items.  Each event sums its terms from 0.0 in
    ``utility_sum``'s order, so the values are bitwise the same.
    """
    price = events.price + offset
    w = np.zeros(len(price))
    starts = events.alloc.searchsorted(np.arange(len(values.values)), side="right")
    for v, s in zip(values.values, starts.tolist()):
        w[s:] += v - price[s:]
    return w


def zero_event_set(adversary: BidProfile, graph: PseudoGraph) -> Events:
    """Row-1 bid nodes whose zero-allocation event is realized: j*eps < beta_K.

    An action whose top bid is j*eps sits below every adversary bid and
    wins nothing, so none of its nodes fires (see ``node_fires``).  The
    event has allocation 0 at price beta_K, so its sub-utility is 0; it
    gives such actions the node on which the partial-feedback estimators
    apply their -K shift.  With it, every action holds exactly one realized
    event: its firing node or this one.
    """
    beta_k = adversary.bids[-1]
    n = int(np.searchsorted(graph.levels, beta_k, side="left"))
    return Events(graph.bid_ids(1)[:n], np.zeros(n, dtype=int), np.full(n, beta_k))


def firing_set(adversary: BidProfile, graph: PseudoGraph) -> Events:
    """All nodes that fire against ``adversary``, in id order, with the
    allocation floor(k) and the price of each (see ``node_fires``).

    Per allocation k, the bid row fires on the levels strictly between
    beta_{K-k+1} and beta_{K-k}, one contiguous range, and the gap row
    k+1/2 fires at most at j = floor(beta_{K-k} * M), at the adversary's
    price.  So there are at most 2(K^2 + M) of them.
    """
    k, m, levels = graph.k, graph.inv_epsilon, graph.levels
    offset = graph.row_offset.tolist()
    beta = (_BETA_HIGH, *adversary.bids, _BETA_LOW)  # beta[i] = beta_i
    # bid row kk fires on levels lo[kk-1] .. hi[kk-1]-1
    lo = np.searchsorted(levels, beta[k:0:-1], side="right").tolist()
    hi = np.searchsorted(levels, beta[k - 1 :: -1], side="left").tolist()
    ids: list[int] = []
    alloc: list[int] = []
    price: list[float] = []
    for kk in range(1, k + 1):
        a, b = lo[kk - 1], hi[kk - 1]
        if a < b:
            ids.extend(range(offset[2 * kk - 2] + a, offset[2 * kk - 2] + b))
            alloc.extend([kk] * (b - a))
            price.extend(levels[a:b].tolist())
        if kk < k:
            p = beta[k - kk]
            j = math.floor(p * m)
            if 0 <= j < m and j / m < p < (j + 1) / m:
                ids.append(offset[2 * kk - 1] + j)
                alloc.append(kk)
                price.append(p)
    return Events(np.array(ids, dtype=int), np.array(alloc, dtype=int), np.array(price))
