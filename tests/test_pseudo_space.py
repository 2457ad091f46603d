import itertools
import math

import numpy as np
import pytest

from uniprice import (
    BidProfile,
    PricingRule,
    PseudoNode,
    Valuation,
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
from uniprice.errors import MalformedPath, OffGrid, TooLarge


def bid(k, j):
    return PseudoNode(2 * k, j)


def gap(k, j):
    return PseudoNode(2 * k + 1, j)


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
        for node in g.nodes():
            assert g.successors(node) == ()

    def test_k2_m1_paths(self):
        g = build_graph(2, 1)
        assert {repr(n) for n in g.nodes()} == {
            "h(1,0)",
            "h(1,1)",
            "h(1.5,0)",
            "h(2,0)",
            "h(2,1)",
        }
        paths = set(enumerate_paths(g))
        assert paths == {
            (bid(1, 1), bid(2, 1)),
            (bid(1, 1), gap(1, 0), bid(2, 0)),
            (bid(1, 0), bid(2, 0)),
        }

    def test_successor_structure(self):
        g = build_graph(3, 4)
        assert g.successors(bid(1, 3)) == (gap(1, 2), bid(2, 3))
        assert g.successors(gap(1, 2)) == (gap(1, 1), bid(2, 2))
        assert g.successors(bid(2, 0)) == (bid(3, 0),)
        assert g.successors(gap(2, 0)) == (bid(3, 0),)
        assert g.successors(bid(3, 2)) == ()

    def test_path_counts(self):
        for k in (1, 2, 3):
            for m in range(1, 6):
                g = build_graph(k, m)
                assert g.n_paths() == math.comb(m + k, k)
                assert len(list(enumerate_paths(g))) == g.n_paths()

    def test_every_path_spans_all_stages(self):
        g = build_graph(3, 3)
        for path in enumerate_paths(g):
            assert path[0].k2 == 2
            assert path[-1].k2 == 6
            ks = [n.k2 // 2 for n in path if n.is_bid]
            assert ks == [1, 2, 3]
            for prev, node in zip(path, path[1:]):
                assert node in g.successors(prev)

    def test_node_count_order(self):
        g = build_graph(4, 10)
        assert g.n_nodes == 4 * 11 + 3 * 10

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_paths(build_graph(3, 4), cap=10))

    def test_node_id_roundtrip(self):
        g = build_graph(3, 4)
        for node in g.nodes():
            assert g.node_from_id(g.node_id(node)) == node


class TestBijection:
    def test_encode_examples(self):
        assert encode(BidProfile((1.0, 0.5)), 2) == (bid(1, 2), gap(1, 1), bid(2, 1))
        assert encode(BidProfile((1.0, 1.0)), 2) == (bid(1, 2), bid(2, 2))
        assert encode(BidProfile((1.0, 0.0)), 2) == (
            bid(1, 2),
            gap(1, 1),
            gap(1, 0),
            bid(2, 0),
        )

    def test_decode_examples(self):
        assert decode((bid(1, 2), gap(1, 1), bid(2, 1)), 2).bids == (1.0, 0.5)
        assert decode((bid(1, 0), bid(2, 0)), 2).bids == (0.0, 0.0)

    def test_roundtrip_exhaustive(self):
        for k in (1, 2, 3):
            for m in (1, 2, 3, 4):
                g = build_graph(k, m)
                for b in all_grid_profiles(k, m):
                    assert decode(encode(b, m), m).bids == b.bids
                for path in enumerate_paths(g):
                    assert encode(decode(path, m), m) == path

    def test_encode_rejects_off_grid(self):
        with pytest.raises(OffGrid):
            encode(BidProfile((0.3, 0.1)), 4)

    def test_decode_rejects_malformed(self):
        with pytest.raises(MalformedPath):
            decode((), 2)
        with pytest.raises(MalformedPath):
            decode((bid(2, 1),), 2)  # must start at the first stage
        with pytest.raises(MalformedPath):
            decode((bid(1, 2), bid(2, 1)), 2)  # skips the gap between levels
        with pytest.raises(MalformedPath):
            decode((bid(1, 1), gap(1, 0)), 2)  # must end at a bid node
        with pytest.raises(MalformedPath):
            decode((bid(1, 3),), 2)  # level above the grid


class TestFiring:
    beta = BidProfile((0.8, 0.3))

    def test_gap_fires_with_adversary_price(self):
        assert node_fires(gap(1, 3), self.beta, 0.25) == (True, 0.8)

    def test_top_bid_needs_adversary_above(self):
        assert node_fires(bid(1, 4), self.beta, 0.25) == (False, None)

    def test_second_bid_blocked_by_adversary(self):
        assert node_fires(bid(2, 2), self.beta, 0.25) == (False, None)

    def test_sub_utility_examples(self):
        v = Valuation((1.0, 0.5))
        assert sub_utility(gap(1, 3), self.beta, v, 0.25) == 1.0 - 0.8
        assert sub_utility(bid(1, 4), self.beta, v, 0.25) == 0.0
        beta2 = BidProfile((0.6, 0.1))
        v2 = Valuation((1.0, 1.0))
        assert sub_utility(bid(2, 1), beta2, v2, 0.5) == 0.0
        assert sub_utility(gap(1, 1), beta2, v2, 0.5) == 1.0 - 0.6

    def test_firing_node_examples(self):
        path = encode(BidProfile((1.0, 0.5)), 4)
        assert firing_node(path, self.beta, 0.25) == gap(1, 3)
        zero = encode(BidProfile((0.0, 0.0)), 4)
        assert firing_node(zero, self.beta, 0.25) is None

    def test_outcome_constancy_over_containing_paths(self):
        # the indicator of a node is independent of the path containing it
        rng = np.random.default_rng(3)
        for k, m in [(2, 2), (2, 3), (3, 2)]:
            g = build_graph(k, m)
            paths = list(enumerate_paths(g))
            for _ in range(20):
                beta = off_grid_profile(rng, k, m)
                v = Valuation(tuple(rng.uniform(0, 1, k)))
                for node in g.nodes():
                    containing = [p for p in paths if node in p]
                    if not containing:
                        continue
                    fires, price = node_fires(node, beta, g.epsilon)
                    for p in containing:
                        o = clear_auction(decode(p, m), beta, PricingRule.LAB, v)
                        realized = (
                            o.allocation == node.k_floor
                            and (
                                (node.is_bid and o.price == node.j * g.epsilon)
                                or (
                                    not node.is_bid
                                    and node.j * g.epsilon
                                    < o.price
                                    < (node.j + 1) * g.epsilon
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
                    o = clear_auction(decode(path, m), beta, PricingRule.LAB, v)
                    assert path_utility(path, beta, v, g.epsilon) == o.utility
                    fired = [n for n in path if node_fires(n, beta, g.epsilon)[0]]
                    assert len(fired) <= 1
                    assert bool(fired) == (o.allocation > 0)

    def test_firing_set_matches_scan_and_bound(self):
        rng = np.random.default_rng(9)
        for k, m in [(1, 3), (2, 4), (3, 5)]:
            g = build_graph(k, m)
            for _ in range(50):
                beta = off_grid_profile(rng, k, m)
                expected = {
                    (g.node_id(n), node_fires(n, beta, g.epsilon)[1])
                    for n in g.nodes()
                    if node_fires(n, beta, g.epsilon)[0]
                }
                got = {(i, price) for i, _, price in firing_set(beta, g)}
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
                zero = set(zero_event_set(beta, g).ids.tolist())
                assert all(
                    g.node_from_id(i).k2 == 2 and g.node_from_id(i).j / m < beta.bids[-1]
                    for i in zero
                )
                for path in enumerate_paths(g):
                    assert (g.node_id(path[0]) in zero) == (
                        firing_node(path, beta, g.epsilon) is None
                    )


class TestObservedSet:
    class Outcome:
        def __init__(self, allocation, price):
            self.allocation = allocation
            self.price = price

    def test_membership_rule(self):
        o = self.Outcome(1, 0.8)
        for j in range(4):
            assert observed_set_membership(gap(1, j), o, 0.25)
        for j in range(5):
            assert observed_set_membership(bid(2, j), o, 0.25)
        assert observed_set_membership(bid(1, 4), o, 0.25)  # 1.0 >= 0.8
        assert not observed_set_membership(bid(1, 3), o, 0.25)  # 0.75 < 0.8
        # a zero-allocation event sits below beta_K <= p: hidden unless x = 0
        assert not observed_set_membership(bid(1, 0), o, 0.25)

    def test_zero_allocation_reveals_everything(self):
        o = self.Outcome(0, 0.3)
        g = build_graph(2, 4)
        assert all(observed_set_membership(n, o, g.epsilon) for n in g.nodes())

    def test_full_allocation(self):
        o = self.Outcome(2, 0.5)
        assert observed_set_membership(bid(2, 2), o, 0.25)
        assert observed_set_membership(bid(2, 3), o, 0.25)
        assert not observed_set_membership(bid(2, 1), o, 0.25)
        assert not observed_set_membership(bid(1, 4), o, 0.25)
        assert not observed_set_membership(gap(1, 3), o, 0.25)
