import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniprice import (
    BidProfile,
    PricingRule,
    Valuation,
    apply_tie_offset,
    build_graph,
    clear_auction,
    decode,
    encode,
    enumerate_paths,
    firing_node,
    firing_set,
    node_fires,
    observed_set_membership,
    path_utility,
    sub_utility,
    zero_event_set,
)
from uniprice.auction_core import on_grid
from uniprice.errors import MalformedPath, OffGrid, TooLarge, WrongLength
from uniprice.pseudo_space import event_utilities, realized_event


def bid(g, k, j):
    return int(g.bid_ids(k)[j])


def gap(g, k, j):
    return int(g.gap_ids(k)[j])


def all_grid_profiles(k, m):
    """Independent enumeration of B_eps: non-increasing level tuples."""
    out = []
    for combo in itertools.combinations_with_replacement(range(m + 1), k):
        levels = sorted(combo, reverse=True)
        out.append(BidProfile(tuple(j / m for j in levels)))
    return out


def off_grid_profile(rng, k, m):
    while True:
        draws = sorted(rng.uniform(0, 1, k), reverse=True)
        if all(round(b * m) / m != b and 0 < b < 1 for b in draws):
            return BidProfile(tuple(draws))


class TestGraph:
    def test_k1_has_no_edges(self):
        g = build_graph(1, 2)
        assert g.n_nodes == 3
        for node in range(g.n_nodes):
            assert g.successors(node) == ()

    def test_k2_m1_paths(self):
        g = build_graph(2, 1)
        assert {g.label(n) for n in range(g.n_nodes)} == {
            "h(1,0)",
            "h(1,1)",
            "h(1.5,0)",
            "h(2,0)",
            "h(2,1)",
        }
        paths = set(enumerate_paths(g))
        assert paths == {
            (bid(g, 1, 1), bid(g, 2, 1)),
            (bid(g, 1, 1), gap(g, 1, 0), bid(g, 2, 0)),
            (bid(g, 1, 0), bid(g, 2, 0)),
        }

    def test_successor_structure(self):
        g = build_graph(3, 4)
        assert g.successors(bid(g, 1, 3)) == (gap(g, 1, 2), bid(g, 2, 3))
        assert g.successors(gap(g, 1, 2)) == (gap(g, 1, 1), bid(g, 2, 2))
        assert g.successors(bid(g, 2, 0)) == (bid(g, 3, 0),)
        assert g.successors(gap(g, 2, 0)) == (bid(g, 3, 0),)
        assert g.successors(bid(g, 3, 2)) == ()

    def test_path_counts(self):
        for k in (1, 2, 3):
            for m in range(1, 6):
                g = build_graph(k, m)
                assert g.n_paths() == math.comb(m + k, k)
                assert len(list(enumerate_paths(g))) == g.n_paths()

    def test_every_path_spans_all_stages(self):
        g = build_graph(3, 3)
        for path in enumerate_paths(g):
            assert g.row[path[0]] == 0
            assert g.row[path[-1]] == 4
            ks = [g.row[n] // 2 + 1 for n in path if g.row[n] % 2 == 0]
            assert ks == [1, 2, 3]
            for prev, node in zip(path, path[1:]):
                assert node in g.successors(prev)

    def test_node_count_order(self):
        g = build_graph(4, 10)
        assert g.n_nodes == 4 * 11 + 3 * 10

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_paths(build_graph(3, 4), cap=10))


class TestBijection:
    def test_encode_examples(self):
        g = build_graph(2, 2)
        assert encode(BidProfile((1.0, 0.5)), g) == (bid(g, 1, 2), gap(g, 1, 1), bid(g, 2, 1))
        assert encode(BidProfile((1.0, 1.0)), g) == (bid(g, 1, 2), bid(g, 2, 2))
        assert encode(BidProfile((1.0, 0.0)), g) == (
            bid(g, 1, 2),
            gap(g, 1, 1),
            gap(g, 1, 0),
            bid(g, 2, 0),
        )

    def test_decode_examples(self):
        g = build_graph(2, 2)
        assert decode((bid(g, 1, 2), gap(g, 1, 1), bid(g, 2, 1)), g).bids == (1.0, 0.5)
        assert decode((bid(g, 1, 0), bid(g, 2, 0)), g).bids == (0.0, 0.0)

    def test_roundtrip_exhaustive(self):
        for k in (1, 2, 3):
            for m in (1, 2, 3, 4):
                g = build_graph(k, m)
                for b in all_grid_profiles(k, m):
                    assert decode(encode(b, g), g).bids == b.bids
                for path in enumerate_paths(g):
                    assert encode(decode(path, g), g) == path

    def test_encode_rejects_off_grid(self):
        for bids in [(0.3, 0.1), (math.nan, 0.5), (1.25, 0.5), (0.5, -0.25)]:
            with pytest.raises(OffGrid):
                encode(BidProfile(bids), build_graph(2, 4))

    def test_encode_rejects_wrong_length(self):
        with pytest.raises(WrongLength):
            encode(BidProfile((0.5,)), build_graph(2, 4))

    def test_decode_rejects_malformed(self):
        g = build_graph(2, 2)
        with pytest.raises(MalformedPath):
            decode((), g)
        with pytest.raises(MalformedPath):
            decode((bid(g, 2, 1),), g)  # must start at the first stage
        with pytest.raises(MalformedPath):
            decode((bid(g, 1, 2), bid(g, 2, 1)), g)  # skips the gap between levels
        with pytest.raises(MalformedPath):
            decode((bid(g, 1, 1), gap(g, 1, 0)), g)  # must end at a bid node
        with pytest.raises(MalformedPath):
            decode((bid(g, 1, 1),), g)  # must end on the last bid row
        for outside in (-1, g.n_nodes):  # ids outside the graph
            with pytest.raises(MalformedPath):
                decode((outside,), g)


class TestFiring:
    beta = BidProfile((0.8, 0.3))
    g = build_graph(2, 4)

    def test_gap_fires_with_adversary_price(self):
        g = self.g
        assert node_fires(gap(g, 1, 3), self.beta, g) == (True, 0.8)

    def test_top_bid_needs_adversary_above(self):
        g = self.g
        assert node_fires(bid(g, 1, 4), self.beta, g) == (False, None)

    def test_second_bid_blocked_by_adversary(self):
        g = self.g
        assert node_fires(bid(g, 2, 2), self.beta, g) == (False, None)

    def test_sub_utility_examples(self):
        g = self.g
        v = Valuation((1.0, 0.5))
        assert sub_utility(gap(g, 1, 3), self.beta, v, g) == 1.0 - 0.8
        assert sub_utility(bid(g, 1, 4), self.beta, v, g) == 0.0
        beta2 = BidProfile((0.6, 0.1))
        v2 = Valuation((1.0, 1.0))
        g2 = build_graph(2, 2)
        assert sub_utility(bid(g2, 2, 1), beta2, v2, g2) == 0.0
        assert sub_utility(gap(g2, 1, 1), beta2, v2, g2) == 1.0 - 0.6

    def test_firing_node_examples(self):
        g = self.g
        path = encode(BidProfile((1.0, 0.5)), g)
        assert firing_node(path, self.beta, g) == gap(g, 1, 3)
        zero = encode(BidProfile((0.0, 0.0)), g)
        assert firing_node(zero, self.beta, g) is None

    def test_outcome_constancy_over_containing_paths(self):
        # the indicator of a node is independent of the path containing it
        rng = np.random.default_rng(3)
        for k, m in [(2, 2), (2, 3), (3, 2)]:
            g = build_graph(k, m)
            paths = list(enumerate_paths(g))
            for _ in range(20):
                beta = off_grid_profile(rng, k, m)
                v = Valuation(tuple(rng.uniform(0, 1, k)))
                for node in range(g.n_nodes):
                    containing = [p for p in paths if node in p]
                    if not containing:
                        continue
                    fires, price = node_fires(node, beta, g)
                    row, j = g.row[node], g.level[node]
                    is_bid = row % 2 == 0
                    for p in containing:
                        o = clear_auction(decode(p, g), beta, PricingRule.LAB, v)
                        realized = (
                            o.allocation == row // 2 + 1
                            and (
                                (is_bid and o.price == j * g.epsilon)
                                or (
                                    not is_bid
                                    and j * g.epsilon
                                    < o.price
                                    < (j + 1) * g.epsilon
                                )
                            )
                        )
                        assert realized == fires
                        if fires:
                            assert o.price == price

    def test_decomposition_and_uniqueness(self):
        rng = np.random.default_rng(4)
        for k, m in [(1, 2), (2, 2), (2, 4), (3, 2)]:
            g = build_graph(k, m)
            for _ in range(50):
                beta = off_grid_profile(rng, k, m)
                v = Valuation(tuple(rng.uniform(0, 1, k)))
                for path in enumerate_paths(g):
                    o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
                    assert path_utility(path, beta, v, g) == o.utility
                    fired = [n for n in path if node_fires(n, beta, g)[0]]
                    assert len(fired) <= 1
                    assert bool(fired) == (o.allocation > 0)

    def test_firing_set_matches_scan_and_bound(self):
        rng = np.random.default_rng(9)
        for k, m in [(1, 3), (2, 4), (3, 5)]:
            g = build_graph(k, m)
            for _ in range(50):
                beta = off_grid_profile(rng, k, m)
                expected = {
                    (n, node_fires(n, beta, g)[1])
                    for n in range(g.n_nodes)
                    if node_fires(n, beta, g)[0]
                }
                got = {(i, price) for i, _, price in firing_set(beta.bids, g)}
                assert got == expected
                assert len(got) <= 2 * (k * k + m)

    def test_zero_event_exactly_when_nothing_fires(self):
        # every action holds exactly one realized event: its firing node, or
        # the zero-allocation event of its top-bid node
        rng = np.random.default_rng(10)
        for k, m in [(1, 3), (2, 4), (3, 3)]:
            g = build_graph(k, m)
            for _ in range(30):
                beta = off_grid_profile(rng, k, m)
                zero = set(zero_event_set(beta.bids[-1], g).ids.tolist())
                assert all(
                    g.row[i] == 0 and g.level[i] / m < beta.bids[-1]
                    for i in zero
                )
                for path in enumerate_paths(g):
                    assert (path[0] in zero) == (
                        firing_node(path, beta, g) is None
                    )


class TestObservedSet:
    class Outcome:
        def __init__(self, allocation, price):
            self.allocation = allocation
            self.price = price

    g = build_graph(2, 4)

    def test_membership_rule(self):
        g = self.g
        o = self.Outcome(1, 0.8)
        for j in range(4):
            assert observed_set_membership(gap(g, 1, j), o, g)
        for j in range(5):
            assert observed_set_membership(bid(g, 2, j), o, g)
        assert observed_set_membership(bid(g, 1, 4), o, g)  # 1.0 >= 0.8
        assert not observed_set_membership(bid(g, 1, 3), o, g)  # 0.75 < 0.8
        # a zero-allocation event sits below beta_K <= p: hidden unless x = 0
        assert not observed_set_membership(bid(g, 1, 0), o, g)

    def test_zero_allocation_reveals_everything(self):
        o = self.Outcome(0, 0.3)
        g = build_graph(2, 4)
        assert all(observed_set_membership(n, o, g) for n in range(g.n_nodes))

    def test_full_allocation(self):
        g = self.g
        o = self.Outcome(2, 0.5)
        assert observed_set_membership(bid(g, 2, 2), o, g)
        assert observed_set_membership(bid(g, 2, 3), o, g)
        assert not observed_set_membership(bid(g, 2, 1), o, g)
        assert not observed_set_membership(bid(g, 1, 4), o, g)
        assert not observed_set_membership(gap(g, 1, 3), o, g)


@st.composite
def played_rounds(draw):
    """K in 1..8, M in 1..12, K off-grid adversary bids in (0, 1), some one
    ulp either side of a level, and K non-increasing learner levels,
    repeats allowed."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    g = build_graph(k, m)
    near_level = st.builds(
        math.nextafter, st.sampled_from(g.levels.tolist()), st.sampled_from([-1.0, 2.0])
    )
    off_grid = (
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | near_level
    ).filter(lambda b: 0.0 < b < 1.0 and not on_grid(b, g.epsilon))
    beta = sorted(draw(st.lists(off_grid, min_size=k, max_size=k)), reverse=True)
    levels = sorted(draw(st.lists(st.integers(0, m), min_size=k, max_size=k)), reverse=True)
    return g, BidProfile(tuple(beta)), tuple(levels)


class TestRealizedEvent:
    """``realized_event`` against its references: the LAB clearing for the
    outcome, ``firing_node`` and ``zero_event_set`` for the node."""

    @given(played_rounds())
    # the learner ties itself: b = (0.5, 0.5) against (0.7, 0.3), both bids
    # at the price, and LAB caps x at the one item the adversary leaves
    @example((build_graph(2, 4), BidProfile((0.7, 0.3)), (2, 2)))
    @settings(max_examples=500, deadline=None)
    def test_rule_is_the_clearing_and_the_path_event(self, instance):
        g, beta, levels = instance
        bids = [float(g.levels[j]) for j in levels]
        node, x, price = realized_event(levels, bids, beta.bids, g)
        grid = BidProfile(tuple(bids))
        o = clear_auction(grid, beta, PricingRule.LAB, Valuation((0.5,) * g.k))
        assert (x, price.hex()) == (o.allocation, o.price.hex())
        path = encode(grid, g)
        fired = firing_node(path, beta, g)
        assert node == (path[0] if fired is None else fired)
        if fired is None:
            assert node in zero_event_set(beta.bids[-1], g).ids.tolist()


@st.composite
def perturbed_rounds(draw):
    """K in 1..3, M in 1..6, a tie offset in (0, eps/100) and adversary bids
    in [0, 1), grid points included.  No adversary bid equals a learner's
    market bid min(j eps + offset, 1), where ``clear_auction`` rightly
    raises ``TieDetected``: a run draws its offset so that such a tie has
    probability 0."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    g = build_graph(k, m)
    offset = g.epsilon / 100 * draw(st.floats(1e-3, 1.0, exclude_max=True))
    market = {min(level + offset, 1.0) for level in g.levels.tolist()}
    adversary_bid = st.one_of(
        st.integers(0, m - 1).map(lambda j: float(g.levels[j])),
        st.floats(0.0, 1.0, exclude_max=True),
    ).filter(lambda b: b not in market)
    beta = sorted(draw(st.lists(adversary_bid, min_size=k, max_size=k)), reverse=True)
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    return g, offset, BidProfile(tuple(beta)), Valuation(tuple(values))


class TestPerturbAccounting:
    @given(perturbed_rounds())
    # one ulp above a learner's market bid offset + 0
    @example((build_graph(1, 1), 1e-05, BidProfile((math.nextafter(1e-05, 1.0),)),
              Valuation((0.0,))))
    @settings(max_examples=200, deadline=None)
    def test_market_credits_sum_to_the_market_utility(self, instance):
        # the perturb-mode accounting of harness: events fire against the
        # adversary shifted down by the offset, and are credited at their
        # price plus the offset
        g, offset, beta, v = instance
        events = firing_set([b - offset for b in beta.bids], g)
        credit = dict(zip(events.ids.tolist(), event_utilities(events, v, offset).tolist()))
        for path in enumerate_paths(g):
            market = apply_tie_offset(decode(path, g), offset, g.epsilon)
            u = clear_auction(market, beta, PricingRule.LAB, v).utility
            assert sum(credit.get(i, 0.0) for i in path) == pytest.approx(u, abs=1e-12)
