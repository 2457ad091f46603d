import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from uniprice import (
    BidProfile,
    FeedbackMode,
    PricingRule,
    Valuation,
    WeightState,
    bandit_signal,
    build_graph,
    clear_auction,
    decode,
    default_parameters,
    encode,
    enumerate_paths,
    expected_utility,
    firing_set,
    init_state,
    marginals,
    node_fires,
    observed_set_membership,
    path_log_probability,
    path_utility,
    sample_path,
    sub_utility,
    update_weights,
    zero_event_set,
)
from uniprice.auction_core import on_grid, utility_sum
from uniprice.errors import HorizonTooShort, WeightOverflow, ZeroMarginal
from uniprice.feedback import Feedback, make_feedback
from uniprice.learner import (
    EstimateVector,
    _scan_views,
    _steps,
    _suffix_scan,
    _walk,
    allwinner_signal,
    backward_pass,
    ensure_passes,
    expectation,
    sample_paths,
)
from uniprice.pseudo_space import Events, event_utilities, realized_event
from uniprice.oracle import (
    _revealed_events,
    best_fixed_action_dp,
    best_fixed_total,
    brute_observation_probability,
    exact_path_distribution,
    observation_probability,
)


def bid(g, k, j):
    return int(g.bid_ids(k)[j])


def gap(g, k, j):
    return int(g.gap_ids(k)[j])


def rng_from(seed):
    return np.random.Generator(np.random.Philox(seed))


def off_grid_profile(rng, k, m):
    while True:
        draws = sorted(rng.uniform(0, 1, k), reverse=True)
        if all(round(b * m) / m != b and 0 < b < 1 for b in draws):
            return BidProfile(tuple(draws))


def full_info(beta, v, g):
    """The full-information signal of adversary ``beta``."""
    events = firing_set(beta.bids, g)
    return EstimateVector(events.ids, event_utilities(events, v))


def entries(sig):
    """The ``EstimateVector`` ``sig`` as a dict, node id -> estimate, in
    id order."""
    return dict(zip(sig.ids.tolist(), sig.values.tolist()))


def vector(d):
    """The ``EstimateVector`` of a dict ``d``, node id -> estimate."""
    ids = sorted(d)
    return EstimateVector(np.array(ids, dtype=np.intp), np.array([d[i] for i in ids]))


def revealed(fb, g, v):
    """``allwinner_signal``'s round events and utilities for all-winner
    feedback ``fb``, from the oracle reference on the revealed bids."""
    fired = _revealed_events(fb, g)[1]
    return fired, event_utilities(fired, v)


def as_path(g, levels):
    """The nodes of the action whose bid levels ``sample_path`` returned."""
    return encode(BidProfile(tuple(float(g.levels[j]) for j in levels)), g)


def levels_of(g, path):
    return tuple(int(g.level[n]) for n in path if g.row[n] % 2 == 0)


def played(g, levels, beta, v):
    """The realized node and utility of the action with bid ``levels``
    against ``beta``, as the harness takes them from ``realized_event``."""
    bids = [float(g.levels[j]) for j in levels]
    node, x, price = realized_event(levels, bids, beta.bids, g)
    return node, utility_sum(v.values, x, price)


def random_state(graph, rng, scale=1.0):
    s = init_state(graph)
    s.log_w[:] = rng.normal(0.0, scale, graph.n_nodes)
    return s


class TestPasses:
    def test_gamma0_counts_paths_uniform(self):
        s = init_state(build_graph(2, 2))
        ensure_passes(s)
        assert math.exp(s.log_gamma0) == pytest.approx(6.0, abs=1e-12)

    def test_gamma0_k1(self):
        for m in (1, 3, 7):
            s = init_state(build_graph(1, m))
            ensure_passes(s)
            assert math.exp(s.log_gamma0) == pytest.approx(m + 1, abs=1e-12)

    def test_gamma0_boosted_node(self):
        g = build_graph(1, 1)
        s = init_state(g)
        s.log_w[bid(g, 1, 1)] = 1.0
        ensure_passes(s)
        assert math.exp(s.log_gamma0) == pytest.approx(1 + math.e, rel=1e-12)

    def test_gamma0_equals_enumeration_weight_sum(self):
        rng = np.random.default_rng(0)
        for k, m in [(2, 2), (2, 4), (3, 3)]:
            g = build_graph(k, m)
            s = random_state(g, rng)
            ensure_passes(s)
            scores = [
                sum(s.log_w[n] for n in path) for path in enumerate_paths(g)
            ]
            assert s.log_gamma0 == pytest.approx(logsumexp(scores), abs=1e-12)

    def test_forward_prefix_count(self):
        g = build_graph(2, 1)
        s = init_state(g)
        ensure_passes(s)
        assert math.exp(s.forward[bid(g, 2, 0)]) == pytest.approx(2.0)
        # start nodes have no predecessors, and F leaves out their own weight
        for j in (0, 1):
            assert s.forward[bid(g, 1, j)] == 0.0

    def test_flow_conservation(self):
        rng = np.random.default_rng(1)
        for k, m in [(2, 3), (3, 4)]:
            g = build_graph(k, m)
            s = random_state(g, rng)
            ensure_passes(s)
            last = g.bid_ids(k)
            total = s.log_w[last] + s.forward[last] + s.backward[last]
            assert logsumexp(total) == pytest.approx(s.log_gamma0, abs=1e-10)


class TestMarginals:
    def test_uniform_marginals_are_path_fractions(self):
        g = build_graph(2, 2)
        s = init_state(g)
        paths = list(enumerate_paths(g))
        marg = marginals(s)
        for node in range(g.n_nodes):
            frac = sum(1 for p in paths if node in p) / len(paths)
            assert marg[node] == pytest.approx(frac, abs=1e-12)

    def test_bid_rows_normalize(self):
        rng = np.random.default_rng(2)
        for k, m in [(2, 3), (3, 2)]:
            g = build_graph(k, m)
            s = random_state(g, rng)
            marg = marginals(s)
            for kk in range(1, k + 1):
                assert marg[g.bid_ids(kk)].sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        g = build_graph(2, 3)
        s = random_state(g, rng, scale=2.0)
        dist = exact_path_distribution(s)
        marg = marginals(s)
        for node in range(g.n_nodes):
            enum = sum(p for path, p in dist.items() if node in path)
            assert marg[node] == pytest.approx(enum, abs=1e-10)


class TestSampler:
    def test_degenerate_single_path(self):
        g = build_graph(1, 0)
        s = init_state(g)
        levels = sample_path(s, rng_from(0))
        assert levels == (0,)
        assert as_path(g, levels) == (bid(g, 1, 0),)
        assert math.exp(path_log_probability(s, as_path(g, levels))) == pytest.approx(1.0)

    def test_empirical_frequencies_random_weights(self):
        g = build_graph(2, 2)
        s = random_state(g, np.random.default_rng(4))
        dist = exact_path_distribution(s)
        rng = rng_from(42)
        n = 40000
        counts = Counter(as_path(g, lv) for lv in [sample_path(s, rng) for _ in range(n)])
        for path, p in dist.items():
            assert counts[path] / n == pytest.approx(p, abs=0.02)

    def test_path_probability_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for k, m in [(2, 2), (2, 4), (3, 3)]:
            g = build_graph(k, m)
            s = random_state(g, rng, scale=1.5)
            dist = exact_path_distribution(s)
            for path, p in dist.items():
                assert math.exp(path_log_probability(s, path)) == pytest.approx(
                    p, abs=1e-12
                )

    def test_rounding_falls_back_to_highest_positive_level(self):
        # the top start level's probability underflows to 0 and the start
        # probabilities sum to less than the largest draw, so that draw lies
        # past every level
        g = build_graph(2, 2)
        s = init_state(g)
        s.log_w[:] = [
            1.8267565599574231, -3.0783319101980338, -1000.0, 0.06963722766094482,
            1.3182500241810684, 0.385629249998389, 1.8272586275861753, 0.0317437591517664,
        ]
        top_draw = 1.0 - 2.0**-53
        start = marginals(s)[g.bid_ids(1)]
        assert start[2] == 0.0 and start.cumsum()[-1] < top_draw

        class TopDraw:
            def random(self, size):
                return np.full(size, top_draw)

        levels = sample_path(s, TopDraw())
        assert levels[0] == 1
        v = Valuation((1.0, 0.5))
        for beta in (BidProfile((0.8, 0.3)), BidProfile((0.9, 0.7))):
            (estimate,) = bandit_signal(*played(g, levels, beta, v), s).values
            assert math.isfinite(estimate)

    def test_one_full_info_update_tilts_by_utility(self):
        g = build_graph(2, 2)
        s = init_state(g)
        beta = BidProfile((0.83, 0.31))
        v = Valuation((1.0, 0.5))
        eta = 0.7
        update_weights(s, full_info(beta, v, g), eta)
        dist = exact_path_distribution(s)
        scores = {
            path: eta * path_utility(path, beta, v, g)
            for path in dist
        }
        z = logsumexp(list(scores.values()))
        for path, p in dist.items():
            assert p == pytest.approx(math.exp(scores[path] - z), abs=1e-12)


class TestUpdate:
    def test_zero_signal_is_identity(self):
        g = build_graph(2, 2)
        s = init_state(g)
        before = s.log_w.copy()
        update_weights(s, vector({}), 0.5)
        assert np.array_equal(s.log_w, before)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
    def test_eta_must_be_positive_and_finite(self, eta):
        # an infinite eta would turn a negative estimate into a -inf log weight
        g = build_graph(2, 2)
        s = init_state(g)
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            update_weights(s, vector({bid(g, 1, 0): -1.0}), eta)
        assert not s.log_w.any()

    def test_bandit_signals_nonpositive(self):
        rng = np.random.default_rng(6)
        g = build_graph(2, 4)
        v = Valuation((1.0, 0.5))
        for _ in range(50):
            s = random_state(g, rng)
            beta = off_grid_profile(rng, 2, 4)
            levels = sample_path(s, rng_from(int(rng.integers(1 << 30))))
            for val in bandit_signal(*played(g, levels, beta, v), s).values:
                assert val <= 0.0

    def test_cumulative_identity_full_info(self):
        g = build_graph(2, 2)
        s = init_state(g)
        v = Valuation((1.0, 0.5))
        eta = 0.3
        rng = np.random.default_rng(7)
        betas = [off_grid_profile(rng, 2, 2) for _ in range(5)]
        for beta in betas:
            update_weights(s, full_info(beta, v, g), eta)
        dist = exact_path_distribution(s)
        for path, p in dist.items():
            total = sum(path_utility(path, b, v, g) for b in betas)
            num = math.exp(eta * total)
            den = sum(
                math.exp(
                    eta * sum(path_utility(q, b, v, g) for b in betas)
                )
                for q in dist
            )
            assert p == pytest.approx(num / den, abs=1e-10)


class TestSignals:
    def test_full_info_matches_sub_utilities_and_bound(self):
        rng = np.random.default_rng(8)
        for k, m in [(2, 4), (3, 3)]:
            g = build_graph(k, m)
            v = Valuation(tuple(rng.uniform(0, 1, k)))
            beta = off_grid_profile(rng, k, m)
            sig = entries(full_info(beta, v, g))
            assert len(sig) <= 2 * (k * k + m)
            for path in enumerate_paths(g):
                total = sum(sig.get(n, 0.0) for n in path)
                assert total == path_utility(path, beta, v, g)

    def test_bandit_signal_single_entry(self):
        g = build_graph(2, 4)
        s = init_state(g)
        v = Valuation((1.0, 0.5))
        beta = BidProfile((0.8, 0.3))
        path = encode(BidProfile((1.0, 0.5)), g)
        o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
        marg = marginals(s)
        sig = entries(bandit_signal(*played(g, levels_of(g, path), beta, v), s))
        fired = gap(g, 1, 3)
        assert set(sig) == {fired}
        expected = (o.utility - 2) / marg[fired]
        assert sig[fired] == pytest.approx(expected, rel=1e-12)

    def test_bandit_zero_allocation_empty(self):
        # winning nothing realizes the zero-allocation event of the played
        # top-bid node: a single -K / P entry there, no utility to credit
        g = build_graph(2, 4)
        s = random_state(g, np.random.default_rng(15))
        beta = BidProfile((0.8, 0.3))  # above both bids
        path = encode(BidProfile((0.25, 0.0)), g)
        marg = marginals(s)
        node, w = played(g, levels_of(g, path), beta, Valuation((1.0, 0.5)))
        assert w == 0.0
        sig = entries(bandit_signal(node, w, s))
        top = bid(g, 1, 1)
        assert set(sig) == {top}
        assert sig[top] == pytest.approx(-2 / marg[top], rel=1e-12)

    def test_bandit_zero_marginal_error(self):
        g = build_graph(2, 4)
        s = init_state(g)
        s.log_w[gap(g, 1, 3)] = -800.0  # weight underflows to zero
        path = encode(BidProfile((1.0, 0.5)), g)
        node, w = played(g, levels_of(g, path), BidProfile((0.8, 0.3)), Valuation((1.0, 0.5)))
        with pytest.raises(ZeroMarginal):
            bandit_signal(node, w, s)

    def test_allwinner_superset_of_bandit(self):
        rng = np.random.default_rng(9)
        g = build_graph(2, 4)
        v = Valuation((1.0, 0.5))
        for _ in range(50):
            s = random_state(g, rng)
            beta = off_grid_profile(rng, 2, 4)
            levels = sample_path(s, rng_from(int(rng.integers(1 << 30))))
            o = clear_auction(decode(as_path(g, levels), g), beta, PricingRule.LAB, v)
            fb_a = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
            sig_b = entries(bandit_signal(*played(g, levels, beta, v), s))
            sig_a = entries(allwinner_signal(fb_a, *revealed(fb_a, s.graph, v), s))
            assert set(sig_b) <= set(sig_a)
            for val in sig_a.values():
                assert val <= 0.0

    def test_allwinner_denominator_matches_observation_probability(self):
        rng = np.random.default_rng(10)
        g = build_graph(2, 4)
        v = Valuation((1.0, 0.5))
        for _ in range(30):
            s = random_state(g, rng)
            beta = off_grid_profile(rng, 2, 4)
            levels = sample_path(s, rng_from(int(rng.integers(1 << 30))))
            o = clear_auction(decode(as_path(g, levels), g), beta, PricingRule.LAB, v)
            fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
            sig = entries(allwinner_signal(fb, *revealed(fb, s.graph, v), s))
            zero_events = set(zero_event_set(beta.bids[-1], g).ids.tolist())
            for node, val in sig.items():
                if node in zero_events:
                    w = 0.0
                else:
                    assert node_fires(node, beta, g)[0]
                    w = sub_utility(node, beta, v, g)
                q = observation_probability(node, s, beta)
                assert val == pytest.approx((w - g.k) / q, rel=1e-10)

    def test_observation_probability_vs_brute(self):
        rng = np.random.default_rng(11)
        for k, m in [(2, 2), (2, 4), (3, 2)]:
            g = build_graph(k, m)
            for _ in range(10):
                s = random_state(g, rng)
                beta = off_grid_profile(rng, k, m)
                events = firing_set(beta.bids, g) + zero_event_set(beta.bids[-1], g)
                marg = marginals(s)
                for node in events.ids.tolist():
                    fast = observation_probability(node, s, beta)
                    brute = brute_observation_probability(node, s, beta)
                    assert fast == pytest.approx(brute, abs=1e-12)
                    assert fast >= marg[node] - 1e-12

    def test_allwinner_x0_reveals_all_firing_nodes(self):
        g = build_graph(2, 4)
        s = init_state(g)
        v = Valuation((1.0, 0.5))
        beta = BidProfile((0.8, 0.3))
        path = encode(BidProfile((0.0, 0.0)), g)
        o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
        assert o.allocation == 0
        fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
        assert fb.revealed == beta.bids
        sig = entries(allwinner_signal(fb, *revealed(fb, s.graph, v), s))
        # levels 0 and 0.25 lie below 0.3
        zero_events = {bid(g, 1, 0), bid(g, 1, 1)}
        assert set(zero_event_set(beta.bids[-1], g).ids.tolist()) == zero_events
        assert set(sig) == set(firing_set(beta.bids, g).ids.tolist()) | zero_events
        p_zero = sum(marginals(s)[n] for n in zero_events)
        for node in zero_events:
            assert sig[node] == pytest.approx(-2 / p_zero, rel=1e-12)


@st.composite
def instances(draw):
    """K in 1..4, M in 0..8, an off-grid adversary and a grid learner profile.

    Adversary bids are drawn anywhere in (0, 1) or one ulp either side of
    a grid level, where a float rule for the band would be off by one.
    """
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    g = build_graph(k, m)
    near_level = st.builds(
        math.nextafter, st.sampled_from(g.levels.tolist()), st.sampled_from([-1.0, 2.0])
    )
    off_grid = (
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | near_level
    ).filter(lambda b: 0.0 < b < 1.0 and not on_grid(b, g.epsilon))
    beta = sorted(draw(st.lists(off_grid, min_size=k, max_size=k)), reverse=True)
    levels = sorted(draw(st.lists(st.integers(0, m), min_size=k, max_size=k)), reverse=True)
    bids = BidProfile(tuple(float(g.levels[j]) for j in levels))
    return g, BidProfile(tuple(beta)), bids


def _band_edge():
    """K = 2, M = 6, beta_1 one ulp below the level 5/6 (6 * beta_1 rounds
    to 5), and the learner bidding (5/6, 2/6)."""
    g = build_graph(2, 6)
    beta = BidProfile((math.nextafter(5 / 6, 0.0), 0.3))
    return g, beta, BidProfile((float(g.levels[5]), float(g.levels[2])))


class TestEventProperties:
    @given(instances())
    @example(_band_edge())
    @settings(max_examples=300, deadline=None)
    def test_firing_set_is_the_scalar_scan(self, instance):
        g, beta, _ = instance
        scan = [
            (n, price)
            for n in range(g.n_nodes)
            for fires, price in [node_fires(n, beta, g)]
            if fires
        ]
        assert [(i, price) for i, _, price in firing_set(beta.bids, g)] == scan

    @given(instances())
    @example(_band_edge())
    @settings(max_examples=300, deadline=None)
    def test_allwinner_signal_covers_the_observed_set(self, instance):
        g, beta, bids = instance
        v = Valuation((0.5,) * g.k)
        outcome = clear_auction(bids, beta, PricingRule.LAB, v)
        fb = make_feedback(FeedbackMode.ALL_WINNER, outcome, beta)
        s = init_state(g)
        sig = entries(allwinner_signal(fb, *revealed(fb, s.graph, v), s))

        def realized(h):
            zero_event = g.row[h] == 0 and g.levels[g.level[h]] < beta.bids[-1]
            return zero_event or node_fires(h, beta, g)[0]

        observed = [
            h
            for h in range(g.n_nodes)
            if realized(h) and observed_set_membership(h, outcome, g)
        ]
        assert list(sig) == observed
        # and on the round's own events, computed from the raw profile,
        # whose observed suffix it finds by searchsorted
        events = firing_set(beta.bids, g)
        own = entries(allwinner_signal(fb, events, event_utilities(events, v), s))
        assert list(own) == observed
        for h, val in sig.items():
            w = sub_utility(h, beta, v, g)  # 0 for a zero-allocation event
            q = observation_probability(h, s, beta)
            assert val == pytest.approx((w - g.k) / q, rel=1e-9)
            assert own[h] == val

    @given(instances())
    @example((build_graph(3, 4), BidProfile((0.7, 0.7, 0.2)), None))  # an adversary self-tie
    @settings(max_examples=300, deadline=None)
    def test_events_ascend_by_allocation_then_price(self, instance):
        # the order allwinner_signal reads its observation probabilities in:
        # the zero events share one pair, and the pairs after them ascend
        # strictly, so no two firing events share a q
        g, beta, _ = instance
        zero = zero_event_set(beta.bids[-1], g)
        events = zero + firing_set(beta.bids, g)
        pairs = list(zip(events.alloc.tolist(), events.price.tolist()))
        assert set(pairs[: len(zero)]) <= {(0, beta.bids[-1])}
        rest = pairs[max(len(zero) - 1, 0) :]
        assert all(a < b for a, b in zip(rest, rest[1:]))


class TestAllWinnerEvents:
    """All-winner reads the round's events, computed from the raw profile;
    what it keeps is, bit for bit and in order, what the oracle reference
    finds on the revealed bids alone."""

    @given(instances(), st.just(0.0) | st.floats(1e-3, 1.0, exclude_max=True))
    @example(_band_edge(), 0.0)
    @example(_band_edge(), 0.5)
    @settings(max_examples=300, deadline=None)
    def test_block_events_give_the_revealed_reference(self, instance, share):
        # share 0 is the validate tie mode; otherwise the harness's perturb
        # frame, offset share * eps/100 below, where the bottom bid may be
        # negative
        g, beta, _ = instance
        node = [b - g.epsilon / 100 * share for b in beta.bids]
        assume(not on_grid(np.array(node), g.epsilon).any())
        beta_node = BidProfile(tuple(node))
        v = Valuation(tuple(np.linspace(1.0, 0.3, g.k).tolist()))
        events = firing_set(node, g)
        utilities = event_utilities(events, v)
        s = random_state(g, np.random.default_rng(0))
        outcomes = {}  # every outcome any grid action gets
        for levels in itertools.combinations_with_replacement(range(g.inv_epsilon, -1, -1), g.k):
            bids = BidProfile(tuple(float(g.levels[j]) for j in levels))
            o = clear_auction(bids, beta_node, PricingRule.LAB, v)
            outcomes.setdefault((o.allocation, o.price), o)
        xs = {x for x, _ in outcomes}
        assert (g.k in xs or g.inv_epsilon == 0) and (0 in xs or node[-1] < 0)
        for o in outcomes.values():
            fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta_node)
            zero, fired = _revealed_events(fb, g)
            fast = allwinner_signal(fb, events, utilities, s)
            slow = allwinner_signal(fb, fired, event_utilities(fired, v), s)
            assert fast.ids.tolist() == (zero + fired).ids.tolist()
            assert slow.ids.tolist() == fast.ids.tolist()
            assert fast.values.tobytes() == slow.values.tobytes()


def _allwinner_x0():
    """K = 2, M = 4, the learner bidding (0, 0) against (0.8, 0.3): it wins
    nothing, and all-winner's zero events at levels 0 and 0.25 come before
    the firing events."""
    return build_graph(2, 4), BidProfile((0.8, 0.3)), BidProfile((0.0, 0.0))


@pytest.mark.dispatch
class TestSignalContract:
    """Every signal is an ``EstimateVector`` whose ids ascend strictly, so
    ``update_weights``' scatter-add drops no repeated id."""

    @given(instances(), st.floats(1e-3, 1e3))
    @example(_allwinner_x0(), 0.7)
    @settings(max_examples=300, deadline=None)
    def test_signals_ascend_and_scatter_add_like_a_scalar_loop(self, instance, eta):
        # each mode's signal on the round the learner plays ``bids``
        # against ``beta``, computed as the harness does
        g, beta, bids = instance
        v = Valuation(tuple(np.linspace(1.0, 0.3, g.k).tolist()))
        s = random_state(g, np.random.default_rng(0))
        events = firing_set(beta.bids, g)
        utilities = event_utilities(events, v)
        outcome = clear_auction(bids, beta, PricingRule.LAB, v)
        levels = levels_of(g, encode(bids, g))
        fb_a = make_feedback(FeedbackMode.ALL_WINNER, outcome, beta)
        for sig in (
            EstimateVector(events.ids, utilities),
            bandit_signal(*played(g, levels, beta, v), s),
            allwinner_signal(fb_a, events, utilities, s),
        ):
            ids = sig.ids.tolist()
            assert len(sig) == len(ids) == len(sig.values)
            assert all(0 <= i < g.n_nodes for i in ids)
            assert all(a < b for a, b in zip(ids, ids[1:]))
            ensure_passes(s)  # clean, so the update alone sets the dirty range
            expected = s.log_w.copy()
            for i, val in zip(ids, sig.values.tolist()):
                expected[i] += eta * val
            before = s.log_w.copy()
            update_weights(s, sig, eta)
            assert s.log_w.tobytes() == expected.tobytes()
            ends = (min(ids), max(ids)) if ids else (g.n_nodes, -1)
            assert (s.dirty_lo, s.dirty_hi) == ends
            s.log_w[:] = before
            s.mark_all_dirty()


class TestBandEdges:
    """Adversary bids one ulp off a grid level, K = 2, M = 6: the fast rules
    agree with the references ``node_fires`` and
    ``brute_observation_probability``."""

    def test_gap_node_just_below_a_level_fires(self):
        g, beta, _ = _band_edge()
        assert node_fires(gap(g, 1, 4), beta, g) == (True, beta.bids[0])
        assert gap(g, 1, 4) in firing_set(beta.bids, g).ids.tolist()

    def test_bandit_credits_the_played_gap_node(self):
        g, beta, bids = _band_edge()
        v = Valuation((1.0, 0.5))
        o = clear_auction(bids, beta, PricingRule.LAB, v)
        assert (o.allocation, o.price) == (1, beta.bids[0])
        s = init_state(g)
        sig = entries(bandit_signal(*played(g, (5, 2), beta, v), s))
        assert set(sig) == {gap(g, 1, 4)}
        assert gap(g, 1, 4) in encode(bids, g)  # on the played path

    def test_allwinner_orders_a_level_below_the_gap_one_ulp_above_it(self):
        # h(1,3) is at 0.5 and h(1.5,3) at beta_1, one ulp above; 2x + p
        # rounds both to 2.5
        g = build_graph(2, 6)
        s = init_state(g)
        beta = BidProfile((math.nextafter(0.5, 1.0), 0.1))
        v = Valuation((0.5, 0.5))
        o = clear_auction(BidProfile((0.0, 0.0)), beta, PricingRule.LAB, v)
        assert o.allocation == 0
        fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
        sig = entries(allwinner_signal(fb, *revealed(fb, s.graph, v), s))
        q = brute_observation_probability(bid(g, 1, 3), s, beta)
        assert sig[bid(g, 1, 3)] == pytest.approx(-2 / q, rel=1e-12)


@st.composite
def weighted_graphs(draw):
    """K in 1..4, M in 0..6 and a finite per-node log weight."""
    g = build_graph(draw(st.integers(1, 4)), draw(st.integers(0, 6)))
    weight = st.floats(-5.0, 5.0)
    return g, np.array(draw(st.lists(weight, min_size=g.n_nodes, max_size=g.n_nodes)))


@st.composite
def update_runs(draw):
    """K in 1..4, M in 0..8 and 1 to 8 sparse weight updates, each with a
    flag that says whether the passes run after it.  An update is one node
    of the first bid row, the last bid row or a gap row, or up to four
    nodes anywhere, each value finite."""
    g = build_graph(draw(st.integers(1, 4)), draw(st.integers(0, 8)))
    rows = [g.bid_ids(1), g.bid_ids(g.k)] + [g.gap_ids(k) for k in range(1, g.k)]
    value = st.floats(-5.0, 5.0)
    node = st.sampled_from([ids.tolist() for ids in rows if len(ids)]).flatmap(st.sampled_from)
    single = st.builds(lambda i, v: {i: v}, node, value)
    sparse = st.dictionaries(st.integers(0, g.n_nodes - 1), value, max_size=4)
    return g, draw(st.lists(st.tuples(single | sparse, st.booleans()), min_size=1, max_size=8))


def _edge_updates():
    """K = 3, M = 4: the last bid row, a deep dip in the middle of gap row
    1.5, the first bid row and the last gap row, passes after each."""
    g = build_graph(3, 4)
    return g, [
        ({bid(g, 3, 4): 1.5}, True),
        ({gap(g, 1, 2): -40.0}, True),
        ({bid(g, 1, 0): -2.0}, True),
        ({gap(g, 2, 3): 0.75, bid(g, 2, 1): 0.25}, True),
    ]


#: memory orders of a state's (2, n) stacks: node-major, as ``init_state``
#: stores them, or C order; the bits must not depend on which
ORDERS = ("node", "C")


def new_state(g, order="node"):
    """A new state on ``g`` whose stacks are stored in ``order``.  Checks
    that ``init_state``'s are node-major, so that every row view the passes
    read or write is one contiguous block."""
    s = init_state(g)
    assert s.w2.T.flags.c_contiguous and s.acc.T.flags.c_contiguous
    assert all(v.T.flags.c_contiguous for step in s.scan[-1][-1] for v in step)
    if order == "C":
        n = g.n_nodes
        s = WeightState(graph=g, w2=np.zeros((2, n)), acc=np.full((2, n), -np.inf))
    return s


def assert_same_draws(s, ref):
    """``marginals`` of ``s`` equal those of ``ref`` byte for byte, and
    ``sample_path`` gives both the same levels from equal generators."""
    assert marginals(s).tobytes() == marginals(ref).tobytes()
    rng_s, rng_ref = rng_from(3), rng_from(3)
    for _ in range(4):
        assert sample_path(s, rng_s) == sample_path(ref, rng_ref)


def assert_full_pass_bits(s, order="node"):
    """Gamma, F and log Gamma_0 of ``s`` equal, byte for byte, a full pass
    on a new state holding the same weights, its stacks stored in
    ``order``; so do the marginals and the walk's levels."""
    full = new_state(s.graph, order)
    full.log_w[:] = s.log_w
    ensure_passes(full)
    assert s.backward.tobytes() == full.backward.tobytes()
    assert s.forward.tobytes() == full.forward.tobytes()
    assert np.float64(s.log_gamma0).tobytes() == np.float64(full.log_gamma0).tobytes()
    assert_same_draws(s, full)


def update_batch(s, signal, scale):
    """``update_weights`` on every round of the batch ``s`` at once, round
    r's estimates times ``scale[r]``, and the dirty range widened to the
    signal's ids as ``update_weights`` widens it."""
    ids = sorted(signal)
    s.log_w[:, ids] += np.outer(scale, [signal[i] for i in ids])
    if ids:
        s.dirty_lo, s.dirty_hi = min(s.dirty_lo, ids[0]), max(s.dirty_hi, ids[-1])


def assert_batch_pass_bits(s, order, seed):
    """A batch's Gamma, F, log Gamma_0 and marginals equal, byte for byte,
    those of a new batch over copies of its log weights, its stacks
    stored in ``order``, and both walk alike on the same uniforms."""
    full = new_batch(s.graph, len(s.log_w), order)
    full.log_w[...] = s.log_w
    ensure_passes(full)
    for name in ("backward", "forward", "log_gamma0", "marg"):
        assert getattr(s, name).tobytes() == getattr(full, name).tobytes(), name
    u = rng_from(seed).random((len(s.log_w), s.graph.k))
    assert sample_paths(s, u).tobytes() == sample_paths(full, u).tobytes()


@pytest.mark.dispatch
class TestDirtyRows:
    @given(update_runs(), st.sampled_from(ORDERS), st.sampled_from([None, 1, 3]), st.integers(1, 4))
    @example(_edge_updates(), "node", None, 1)
    @example(_edge_updates(), "C", None, 1)
    @example(_edge_updates(), "C", 3, 4)
    @settings(max_examples=300, deadline=None)
    def test_dirty_row_passes_equal_full_passes_bitwise(self, run, order, rounds, cycles):
        # node-major dirty-row passes, on one state or a batch of ``rounds``
        # whose views were built once, through ``cycles`` runs of the
        # updates, against full passes on new stacks in ``order``
        g, updates = run
        s = init_state(g, rounds)
        ensure_passes(s)
        scale = None if rounds is None else np.linspace(1.0, 0.25, rounds)
        for cycle, (n, (signal, passes)) in itertools.product(range(cycles), enumerate(updates, 1)):
            if rounds is None:
                update_weights(s, vector(signal), 1.0)
            else:
                update_batch(s, signal, scale)
            if not (passes or n == len(updates)):
                continue
            ensure_passes(s)
            if rounds is None:
                assert_full_pass_bits(s, order)
            else:
                assert_batch_pass_bits(s, order, cycle * len(updates) + n)

    def test_a_direct_write_after_a_pass_needs_mark_all_dirty(self):
        g = build_graph(2, 3)
        s = init_state(g)
        ensure_passes(s)
        s.log_w[bid(g, 2, 1)] = 2.0
        s.mark_all_dirty()
        ensure_passes(s)
        assert_full_pass_bits(s)


def _dip_in_gap_row_1_5():
    """K = 3, M = 4, a log weight of -40 in gap row 1.5, which the reversed
    graph holds in gap row 2.5: each stacked row has one chain whose
    prefix sums drop by 40 midway and one whose do not.  The other log
    weights are unequal."""
    g = build_graph(3, 4)
    log_w = np.linspace(-1.0, 1.0, g.n_nodes)
    log_w[gap(g, 1, 2)] = -40.0
    return g, log_w


@pytest.mark.dispatch
class TestStackedPasses:
    @given(weighted_graphs(), st.sampled_from(ORDERS))
    @example(_dip_in_gap_row_1_5(), "node")
    @example(_dip_in_gap_row_1_5(), "C")
    @settings(max_examples=300, deadline=None)
    def test_stack_equals_single_array_scans_bitwise(self, instance, order):
        g, log_w = instance
        s = new_state(g, order)
        s.log_w[:] = log_w
        ensure_passes(s)
        gamma, f_rev = np.empty(g.n_nodes), np.empty(g.n_nodes)
        for w, out in ((log_w, gamma), (log_w[::-1], f_rev)):
            (w_bid, w_gap), (o_bid, o_gap) = g.rows(w), g.rows(out)
            _suffix_scan(np.logaddexp, _scan_views(w_bid, w_gap, o_bid))
            o_gap[...] = o_bid[:-1, :-1]
        log_g0 = np.logaddexp.reduce(g.rows(log_w)[0][0] + g.rows(gamma)[0][0])
        assert s.backward.tobytes() == gamma.tobytes()
        assert s.forward.tobytes() == f_rev[::-1].tobytes()
        assert np.float64(s.log_gamma0).tobytes() == np.float64(log_g0).tobytes()
        ref = init_state(g)
        ref.log_w[:] = log_w
        assert_same_draws(s, ref)


class TestRowKernelProperties:
    @given(weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_marginals_are_node_inclusion_sums(self, instance):
        g, log_w = instance
        s = init_state(g)
        s.log_w[:] = log_w
        dist = exact_path_distribution(s)
        marg = marginals(s)
        for i in range(g.n_nodes):
            enum = sum(p for path, p in dist.items() if i in path)
            assert marg[i] == pytest.approx(enum, abs=1e-9)

    @given(weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_best_fixed_total_is_the_dp_total(self, instance):
        g, totals = instance
        _, dp_total = best_fixed_action_dp(totals, g)
        assert best_fixed_total(totals, g) == pytest.approx(dp_total, abs=1e-9)


class Uniforms:
    """A stand-in rng whose ``random(size)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return np.array(self.u)


def inverted_levels(dist, g, u, margin=1e-9):
    """The K levels that inverting the exact conditionals of ``dist`` with
    the uniforms ``u`` gives, or None when some u lies within ``margin``
    of a boundary.  u[0] takes the first start level, ascending, whose
    cumulative probability exceeds it; u[r] takes n gap steps down from
    bid level j, where n is the most steps whose conditional probability
    P(next level <= j - n | levels so far) exceeds u[r]."""
    mass = Counter()
    for path, p in dist.items():
        mass[levels_of(g, path)] += p
    levels = ()
    for x in u:
        cond = Counter()
        for lv, p in mass.items():
            if lv[: len(levels)] == levels:
                cond[lv[len(levels)]] += p
        total = sum(cond.values())
        if not levels:
            cum = np.cumsum([cond[j] / total for j in range(g.inv_epsilon + 1)])
            bounds, j = cum, int(np.argmax(cum > x))
        else:
            top = levels[-1]
            # bounds[n - 1]: the probability of at least n steps
            bounds = [sum(cond[j] for j in range(top - n + 1)) / total for n in range(1, top + 1)]
            j = top - sum(x < b for b in bounds)
        if any(abs(x - b) < margin for b in bounds):
            return None
        levels += (j,)
    return levels


def reference_walk(j, w_gap, gamma, u):
    """The walk from start level ``j``, each step's probability computed
    where it is read, from the raw gap-row log weights ``w_gap`` and the
    bid rows' log Gamma ``gamma`` (lists of Python floats)."""
    levels = [j]
    for w_row, g_row, x in zip(w_gap, gamma, u):
        p = 1.0
        while j > 0:
            p *= math.exp(w_row[j - 1] + g_row[j - 1] - g_row[j])
            if x >= p:
                break
            j -= 1
        levels.append(j)
    return tuple(levels)


def reference_path(s, u):
    """``sample_path``'s levels on the uniforms ``u``, from state ``s``'s
    raw rows: the start level by ``searchsorted`` on the cumulative start
    marginals (the highest positive one when u[0] passes their sum), then
    ``reference_walk``."""
    g = s.graph
    probs = marginals(s)[: g.inv_epsilon + 1]
    j = int(np.cumsum(probs).searchsorted(u[0], side="right"))
    if j == len(probs):
        j = int(np.flatnonzero(probs)[-1])
    w_gap, gamma = g.rows(s.log_w)[1], g.rows(s.backward)[0][:-1]
    return reference_walk(j, w_gap.tolist(), gamma.tolist(), u[1:])


class TestWalk:
    """``sample_path`` is an inverse-CDF walk on exactly K uniforms a call."""

    @given(weighted_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_walk_inverts_the_exact_conditionals(self, instance, data):
        # one drawn u, edge values included, and 20 Philox draws for spread
        g, log_w = instance
        s = init_state(g)
        s.log_w[:] = log_w
        dist = exact_path_distribution(s)
        uniform = st.floats(0.0, 1.0, exclude_max=True)
        drawn = [data.draw(st.lists(uniform, min_size=g.k, max_size=g.k))]
        drawn += rng_from(data.draw(st.integers(0, 2**32 - 1))).random((20, g.k)).tolist()
        for u in drawn:
            expected = inverted_levels(dist, g, u)
            if expected is not None:  # u is not within 1e-9 of a boundary
                assert sample_path(s, Uniforms(u)) == expected

    @pytest.mark.dispatch
    @given(
        st.integers(1, 4), st.integers(0, 64), st.integers(1, 4), st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 40.0]),
    )
    @example(2, 40, 3, 11, 40.0)
    @example(2, 2, 1, 0, 1.0)
    @example(2, 64, 4, 1, 1.0)
    @example(4, 64, 3, 2, 40.0)
    @settings(max_examples=200, deadline=None)
    def test_walk_on_steps_is_the_per_step_reference(self, k, m, rounds, seed, scale):
        # random states, one state and a batch of them, whose block walk
        # (sample_paths) must equal each round's _walk; every third round's
        # u[0] sits just below 1, at or above the summed start
        # probabilities about half the time: the start-level fallback
        g = build_graph(k, m)
        rng = rng_from(seed)
        table = rng.normal(0.0, scale, (rounds, g.n_nodes))
        u = rng.random((rounds, k))
        u[::3, 0] = math.nextafter(1.0, 0.0)
        batch = init_state(g, rounds)
        batch.log_w[...] = table
        walks = sample_paths(batch, u)
        for r in range(rounds):
            s = init_state(g)
            s.log_w[:] = table[r]
            expected = reference_path(s, u[r].tolist())
            assert sample_path(s, Uniforms(u[r].tolist())) == expected
            assert tuple(walks[r].tolist()) == expected
            w_gap, gamma = g.rows(s.log_w)[1], g.rows(s.backward)[0][:-1]
            steps, x = _steps(s).tolist(), u[r, 1:].tolist()
            for j in range(m + 1):  # every start level
                assert _walk(j, steps, x) == reference_walk(j, w_gap.tolist(), gamma.tolist(), x)

    def test_a_walk_advances_philox_as_random_k_does(self):
        for k, m in [(1, 0), (1, 3), (2, 5), (4, 2)]:
            g = build_graph(k, m)
            s = random_state(g, np.random.default_rng(k + m))
            walked, drawn = rng_from(k + m), rng_from(k + m)
            for _ in range(20):
                sample_path(s, walked)
                drawn.random(k)
            assert walked.random(8).tobytes() == drawn.random(8).tobytes()
            # so T walks' uniforms are one (T, K) draw
            block = rng_from(7).random((20, k))
            one = rng_from(7)
            assert block.tobytes() == np.array([one.random(k) for _ in range(20)]).tobytes()


def one_state_walks(g, table, u):
    """Each round's ``sample_path`` on a state of its own log weights
    ``table[i]`` and uniforms ``u[i]``: the start draw, then ``_walk``."""
    walks = []
    for log_w, x in zip(table, u.tolist()):
        s = init_state(g)
        s.log_w[:] = log_w
        walks.append(list(sample_path(s, Uniforms(x))))
    return walks


def walk_calls(monkeypatch):
    """The start level of every ``_walk`` call from here on."""
    from uniprice import learner

    starts, walk = [], learner._walk

    def counted(j, steps, u):
        starts.append(j)
        return walk(j, steps, u)

    monkeypatch.setattr(learner, "_walk", counted)
    return starts


#: Real K = 2 states whose passes pass but whose log weights, near 1e19,
#: leave a walk step's log probability far above ``math.exp``'s overflow:
#: (M, log weights, the start level, of probability 1, and its steps).
#: Reached: from level 2 the first step is 2048.  Unreached: from level 1
#: the first step is -1.2e19, taken with probability 0, and the 1024 lies
#: above the start; from level 3 (M = 3) the first step is -3.1e17 and the
#: 1024 lies below it.
OVERFLOW_REACHED = (2, [
    -1.3714546465392552e19, 6.176470207390467e18, 7.590128983821884e18, 4.717612086343923e18,
    1.1749416633434206e19, -3.3840913764224e18, 6.504756618096278e18, 4.270175413489002e18,
], 2, [-5.171235908174755e18, 2048.0])
OVERFLOW_ABOVE_THE_START = (2, [
    -7.068146508506158e16, -2.9242247357529585e18, -6.459819658363849e18, -1.6607955434109105e18,
    4.429966277927347e17, -3.8037884810735596e18, 6.333354102721977e18, -4.0008725814864087e18,
], 1, [-1.1797938127206447e19, 1024.0])
OVERFLOW_BELOW_THE_STOP = (3, [
    1.7061248845644237e18, -4.49217982710952e17, -6.638865242554591e17, 2.2756156230027205e18,
    4.685259388617121e18, 1.3331524728248732e18, 1.2548653045709084e18, -8.001523301512569e18,
    4.066863892436677e18, -2.2901108466444698e18, 6.964844701668554e18,
], 3, [-7.383127805332126e18, 1024.0, -3.099630318360955e17])


def overflow_batch(case):
    """A batch of three rounds, the middle one ``case``'s state and the
    others all weights 1, after its passes, and its graph; checks the
    state's start level and steps."""
    m, log_w, start, steps = case
    g = build_graph(2, m)
    batch = init_state(g, 3)
    batch.log_w[1] = log_w
    with np.errstate(over="ignore", invalid="ignore"):
        marg = marginals(batch)
    assert marg[1, : m + 1].tolist() == [float(j == start) for j in range(m + 1)]
    assert _steps(batch)[1, 0].tolist() == steps
    return g, batch


@pytest.mark.dispatch
class TestBlockWalk:
    """``sample_paths`` walks each gap row of a batch as array operations
    and replays through ``_walk`` only the rounds whose comparisons could
    go otherwise; its levels are ``_walk``'s, round by round (see also
    ``TestWalk::test_walk_on_steps_is_the_per_step_reference``)."""

    def test_u_on_a_product_replays_its_round(self, monkeypatch):
        # round 1's u[1] is the product of its first two step probabilities,
        # as _walk computes it: the walk stops after one step, on a
        # comparison an ulp of exp could turn, so the round replays
        g = build_graph(2, 8)
        table = rng_from(3).normal(0.0, 1.0, (3, g.n_nodes))
        batch = init_state(g, 3)
        batch.log_w[...] = table
        u = rng_from(4).random((3, 2))
        j = int(sample_paths(batch, u)[1, 0])
        assert j >= 2
        steps = _steps(batch)[1, 0].tolist()
        u[1, 1] = 1.0 * math.exp(steps[j - 1]) * math.exp(steps[j - 2])
        expected = one_state_walks(g, table, u)
        assert expected[1] == [j, j - 1]
        starts = walk_calls(monkeypatch)
        assert sample_paths(batch, u).tolist() == expected
        assert starts == [j]

    def test_a_reached_overflowing_step_raises_walks_line(self, monkeypatch):
        g, batch = overflow_batch(OVERFLOW_REACHED)
        u = rng_from(1).random((3, 2))
        starts = walk_calls(monkeypatch)
        with pytest.raises(WeightOverflow, match="^a walk step's log probability overflows$"):
            sample_paths(batch, u)
        assert starts == [2]
        s = init_state(g)
        s.log_w[:] = OVERFLOW_REACHED[1]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            WeightOverflow, match="^a walk step's log probability overflows$"
        ):
            sample_path(s, Uniforms(u[1].tolist()))

    @pytest.mark.parametrize(
        "case", [OVERFLOW_ABOVE_THE_START, OVERFLOW_BELOW_THE_STOP], ids=["above", "below"]
    )
    def test_an_unreached_overflowing_step_does_not_raise(self, case):
        g, batch = overflow_batch(case)
        u = rng_from(1).random((3, 2))
        walks = sample_paths(batch, u)
        assert walks[1].tolist() == [case[2]] * 2
        with np.errstate(over="ignore", invalid="ignore"):
            assert walks.tolist() == one_state_walks(g, batch.log_w, u)


def new_batch(g, rounds, order="node"):
    """A batch of ``rounds`` new states on ``g``, its stacks stored in
    ``order``: node-major, as ``init_state`` stores them, or C order."""
    if order == "node":
        return init_state(g, rounds)
    n = g.n_nodes
    return WeightState(graph=g, w2=np.zeros((rounds, 2, n)), acc=np.full((rounds, 2, n), -np.inf))


def full_info_rounds(instance, rounds, seed, scale):
    """(B, n) log weights as full information's rounds see them: random
    weights of spread ``scale``, then each round adds eta times the true
    sub-utilities of ``instance``'s adversary profile, eta drawn per
    round."""
    g, beta, _ = instance
    rng = rng_from(seed)
    events = firing_set(beta.bids, g)
    w = event_utilities(events, Valuation(tuple(np.linspace(1.0, 0.3, g.k).tolist())))
    table = np.zeros((rounds, g.n_nodes))
    table[0] = rng.normal(0.0, scale, g.n_nodes)
    table[1:, events.ids] = rng.uniform(0.0, 2.0, (rounds - 1, 1)) * w
    return np.cumsum(table, axis=0)


def _wide_grid():
    """K = 2, M = 40: rows of 41 levels, long enough that numpy's pairwise
    sum and a running sum order their terms differently."""
    g = build_graph(2, 40)
    return g, BidProfile((0.61, 0.2049)), BidProfile((float(g.levels[30]), float(g.levels[7])))


def _one_unit(m):
    g = build_graph(1, m)
    return g, BidProfile((0.3,)), BidProfile((float(g.levels[-1]),))


@pytest.mark.dispatch
class TestBatchedRounds:
    """A batch of states along a leading rounds axis, as full information
    runs its learner a block of rounds at a time, gives every round the
    bits of its own one-state calls."""

    @given(
        instances(), st.integers(1, 5), st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 40.0]), st.sampled_from(ORDERS),
    )
    @example(_wide_grid(), 4, 11, 40.0, "node")
    @example(_wide_grid(), 4, 11, 40.0, "C")
    @example(_one_unit(0), 3, 5, 1.0, "node")
    @example(_one_unit(1), 3, 5, 1.0, "node")
    @settings(max_examples=200, deadline=None)
    def test_batch_is_the_one_state_calls_bitwise(self, instance, rounds, seed, scale, order):
        g = instance[0]
        table = full_info_rounds(instance, rounds, seed, scale)
        batch = new_batch(g, rounds, order)
        batch.log_w[...] = table
        marg = marginals(batch)
        assert batch.log_gamma0.shape == (rounds,)
        walks = sample_paths(batch, rng_from(seed).random((rounds, g.k)))
        draws = rng_from(seed)  # K uniforms a walk, as one (B, K) draw gives them
        # u[0] just below 1, at or above the summed start probabilities
        # about half the time: the fallback to the highest positive level
        top = rng_from(seed).random((rounds, g.k))
        top[:, 0] = math.nextafter(1.0, 0.0)
        top_walks = sample_paths(batch, top)
        for r in range(rounds):
            s = init_state(g)
            s.log_w[:] = table[r]
            assert marginals(s).tobytes() == marg[r].tobytes()
            assert s.backward.tobytes() == batch.backward[r].tobytes()
            assert s.forward.tobytes() == batch.forward[r].tobytes()
            assert np.float64(s.log_gamma0).tobytes() == batch.log_gamma0[r].tobytes()
            assert sample_path(s, draws) == tuple(walks[r].tolist())
            assert sample_path(s, Uniforms(top[r].tolist())) == tuple(top_walks[r].tolist())

    @given(instances(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(_wide_grid(), 4, 11)
    @settings(max_examples=100, deadline=None)
    def test_batched_log_gamma0_is_the_one_row_calls_in_any_order(self, instance, rounds, seed):
        # batches whose stacks are node-major, in C order and with every
        # stride reversed: each round's log Gamma_0 is one state's, the
        # 1-D logaddexp reduce of its first bid row's W + Gamma
        g = instance[0]
        table = rng_from(seed).normal(0.0, 30.0, (rounds, g.n_nodes))
        one_row = []
        for log_w in table:
            s = init_state(g)
            s.log_w[:] = log_w
            ensure_passes(s)
            start = g.bid_ids(1)
            assert np.logaddexp.reduce(s.log_w[start] + s.backward[start]) == s.log_gamma0
            one_row.append(s.log_gamma0)
        shape = (rounds, 2, g.n_nodes)
        stacks = [
            (np.zeros(shape[::-1]).T, np.full(shape[::-1], -np.inf).T),
            (np.zeros(shape), np.full(shape, -np.inf)),
            (np.zeros(shape)[::-1, ::-1, ::-1], np.full(shape, -np.inf)[::-1, ::-1, ::-1]),
        ]
        for w2, acc in stacks:
            batch = WeightState(graph=g, w2=w2, acc=acc)
            batch.log_w[...] = table
            ensure_passes(batch)
            assert batch.log_gamma0.tobytes() == np.array(one_row).tobytes()

    def test_a_batch_raises_its_first_failing_rounds_one_state_line(self):
        # K = 2, M = 4 rounds: one that passes and one failing each pass
        # check: log Gamma_0 not finite (log weights at 1e308, whose sum
        # overflows but whose terms are finite), the end gap (failing_batch's
        # spread of 1e12) and the start row (bid nodes tied at 1e16).  Every
        # round's end checks run in backward_pass, before any round's start
        # row, so a batch raises the line of its first round that fails an
        # end check, else of its first round that fails the start row
        g = build_graph(2, 4)
        passing = np.random.default_rng(1).normal(0.0, 1.0, g.n_nodes)
        failing = [
            np.full(g.n_nodes, 1e308),
            np.random.default_rng(0).normal(0.0, 1e12, g.n_nodes),
            np.where(g.row % 2 == 0, 1e16, 0.0),
        ]
        one_state = {}
        for i, log_w in enumerate(failing):
            s = init_state(g)
            s.log_w[:] = log_w
            with np.errstate(over="ignore"), pytest.raises(WeightOverflow) as raised:
                ensure_passes(s)
            one_state[i] = str(raised.value)
        assert [one_state[i].split(" ")[:3] for i in range(3)] == [
            ["log", "Gamma_0", "is"], ["log", "Gamma_0", "is"], ["the", "first", "bid"]
        ]
        # each failing round alone, first, in the middle and last; then
        # every order of all four rounds
        batches = [[i if r == at else None for r in range(3)] for i in range(3) for at in range(3)]
        batches += itertools.permutations([None, 0, 1, 2])
        for rounds in batches:
            batch = init_state(g, len(rounds))
            batch.log_w[...] = [passing if i is None else failing[i] for i in rounds]
            end_failing = [i for i in rounds if i in (0, 1)]
            first = end_failing[0] if end_failing else 2
            for _ in range(2):
                with np.errstate(over="ignore"), pytest.raises(WeightOverflow) as raised:
                    ensure_passes(batch)
                assert str(raised.value) == one_state[first], rounds
                assert batch.dirty_lo <= batch.dirty_hi
        # a passing batch: log Gamma_0 has one entry a round, each bitwise
        # its one-state np.float64
        table = np.random.default_rng(2).normal(0.0, 3.0, (3, g.n_nodes))
        batch = init_state(g, 3)
        batch.log_w[...] = table
        ensure_passes(batch)
        assert batch.log_gamma0.shape == (3,)
        for r in range(3):
            s = init_state(g)
            s.log_w[:] = table[r]
            ensure_passes(s)
            assert type(s.log_gamma0) is np.float64
            assert s.log_gamma0.tobytes() == batch.log_gamma0[r].tobytes()

    def test_a_batch_falls_back_to_the_highest_positive_level(self):
        # TestSampler's state, whose top start level has probability 0 and
        # whose start probabilities sum below the draw, between two others
        g = build_graph(2, 2)
        fallback = [
            1.8267565599574231, -3.0783319101980338, -1000.0, 0.06963722766094482,
            1.3182500241810684, 0.385629249998389, 1.8272586275861753, 0.0317437591517664,
        ]
        table = np.array([np.zeros(g.n_nodes), fallback, np.linspace(-1.0, 1.0, g.n_nodes)])
        batch = init_state(g, 3)
        batch.log_w[...] = table
        u = np.full((3, g.k), 1.0 - 2.0**-53)
        walks = sample_paths(batch, u)
        assert walks[1, 0] == 1
        for r in range(3):
            s = init_state(g)
            s.log_w[:] = table[r]
            assert sample_path(s, Uniforms(u[r].tolist())) == tuple(walks[r].tolist())

    @staticmethod
    def failing_batch():
        """K = 2, M = 4, rounds 0 and 1 passing, round 2 failing its end
        check (log weights of spread 1e12), round 3 holding an infinite
        log weight."""
        g = build_graph(2, 4)
        batch = init_state(g, 4)
        for r, (seed, scale) in enumerate([(1, 1.0), (1, 1e12), (0, 1e12), (2, 1.0)]):
            batch.log_w[r] = np.random.default_rng(seed).normal(0.0, scale, g.n_nodes)
        batch.log_w[3, bid(g, 2, 1)] = math.inf
        return g, batch

    @staticmethod
    def full_information(g, batch):
        """``harness._full_information`` on a block whose
        learner states come out as ``batch``'s log weights, give or take
        rounding: each round's signal updates every node by the next
        round's difference, at eta = 1.  ``batch`` then holds the rows the
        block ran."""
        from uniprice import harness

        table = batch.log_w.copy()
        n, rounds = g.n_nodes, len(table)
        ids = np.tile(np.arange(n), rounds)
        deltas = np.append(np.diff(table, axis=0), np.zeros(n))
        starts = np.arange(0, rounds * n + 1, n)
        events = Events(ids, g.alloc[ids], np.zeros(rounds * n), starts)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _run_replication
            return harness._full_information(
                batch, table[0], events, deltas, 1.0, rng_from(1)
            )

    def test_full_information_raises_the_earliest_failing_rounds_error(self):
        # the block fails as a batch; its replay round by round raises round
        # 2's own end-check error, ahead of round 3's infinite weight
        g, batch = self.failing_batch()
        with pytest.raises(WeightOverflow) as raised:
            self.full_information(g, batch)
        for r in range(3):  # the rows the block ran, each as its own state
            s = init_state(g)
            s.log_w[:] = batch.log_w[r]
            if r < 2:
                ensure_passes(s)
        with pytest.raises(WeightOverflow, match="^log Gamma_0 is ") as per_round:
            ensure_passes(s)
        assert str(raised.value) == str(per_round.value)

    def test_full_information_raises_a_later_infinite_weight_once_earlier_rounds_pass(self):
        g, batch = self.failing_batch()
        batch.log_w[2] = batch.log_w[0]  # round 2 repaired
        with pytest.raises(WeightOverflow, match=r"^node h\(2,1\) has log weight inf$"):
            self.full_information(g, batch)

    def test_full_information_raises_an_earlier_rounds_walk_error_first(self):
        # round 1's walk reaches a step whose log probability overflows, on
        # a real state whose passes pass; round 2's passes fail on an
        # infinite log weight, yet round 1's walk error comes first
        g, batch = overflow_batch(OVERFLOW_REACHED)
        batch.log_w[2] = batch.log_w[1]
        batch.log_w[2, bid(g, 2, 1)] = math.inf
        with pytest.raises(WeightOverflow, match="^a walk step's log probability overflows$"):
            self.full_information(g, batch)
        assert batch.log_w[1].tolist() == OVERFLOW_REACHED[1]  # the rows the block ran
        s = init_state(g)
        s.log_w[:] = batch.log_w[2]
        with pytest.raises(WeightOverflow, match=r"^node h\(2,1\) has log weight inf$"):
            ensure_passes(s)


class TestPassTable:
    """Each pass computes the marginals once, as ``WeightState.marg``; the
    start draws, both signals and ``marginals`` read that one table."""

    @pytest.mark.dispatch
    @given(st.integers(1, 4), st.integers(0, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_samplers_start_where_the_pass_table_says(self, k, m, data):
        # a table one-hot at start level j, which the weights do not give
        g = build_graph(k, m)
        j = data.draw(st.integers(0, m))
        unit = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k)
        s = random_state(g, rng_from(j))
        ensure_passes(s)
        s.marg = s.marg.copy()
        s.marg[: m + 1] = np.eye(m + 1)[j]
        assert sample_path(s, Uniforms(data.draw(unit)))[0] == j
        batch = init_state(g, 3)
        batch.log_w[...] = s.log_w
        ensure_passes(batch)
        batch.marg = batch.marg.copy()
        batch.marg[:, : m + 1] = np.eye(m + 1)[j]
        u = np.array(data.draw(st.lists(unit, min_size=3, max_size=3)))
        assert sample_paths(batch, u)[:, 0].tolist() == [j] * 3

    def test_marginals_is_one_array_until_the_next_pass(self):
        g = build_graph(2, 4)
        s = random_state(g, rng_from(5))
        first = marginals(s)
        assert marginals(s) is first
        kept = first.copy()
        update_weights(s, vector({bid(g, 2, 1): -0.5}), 1.0)
        second = marginals(s)
        assert second is not first and marginals(s) is second
        assert second.tobytes() != kept.tobytes()
        kept_second = second.copy()
        s.mark_all_dirty()
        third = marginals(s)
        assert third is not second and third.tobytes() == kept_second.tobytes()
        assert first.tobytes() == kept.tobytes()
        assert second.tobytes() == kept_second.tobytes()

    @pytest.mark.parametrize("mode", [FeedbackMode.BANDIT, FeedbackMode.ALL_WINNER])
    def test_a_signal_on_a_dirty_state_is_the_call_after_the_pass(self, mode):
        g = build_graph(2, 4)
        v = Valuation((1.0, 0.5))
        beta, levels = BidProfile((0.8, 0.3)), (4, 1)
        o = clear_auction(decode(as_path(g, levels), g), beta, PricingRule.LAB, v)
        fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
        states = []
        for _ in range(2):
            s = random_state(g, rng_from(8))
            ensure_passes(s)
            update_weights(s, vector({bid(g, 1, 2): -0.9, gap(g, 1, 1): 0.3}), 1.0)
            states.append(s)
        dirty, clean = states
        ensure_passes(clean)
        assert dirty.dirty_lo <= dirty.dirty_hi
        signals = [
            bandit_signal(*played(g, levels, beta, v), s)
            if mode is FeedbackMode.BANDIT
            else allwinner_signal(fb, *revealed(fb, g, v), s)
            for s in (dirty, clean)
        ]
        assert [sig.ids.tobytes() for sig in signals] == [signals[1].ids.tobytes()] * 2
        assert [sig.values.tobytes() for sig in signals] == [signals[1].values.tobytes()] * 2


@st.composite
def blocks(draw):
    """K in 1..4, M in 0..8 and a (B, K) block of 1 to 6 off-grid
    adversary profiles, bids anywhere in (0, 1) or one ulp either side of a
    grid level, as in ``instances``."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    g = build_graph(k, m)
    near_level = st.builds(
        math.nextafter, st.sampled_from(g.levels.tolist()), st.sampled_from([-1.0, 2.0])
    )
    off_grid = (
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | near_level
    ).filter(lambda b: 0.0 < b < 1.0 and not on_grid(b, g.epsilon))
    profile = st.lists(off_grid, min_size=k, max_size=k).map(lambda b: sorted(b, reverse=True))
    return g, np.array(draw(st.lists(profile, min_size=1, max_size=6)))


def _band_edge_block():
    """``_band_edge``'s profile between two others on the K = 2, M = 6 grid."""
    g, beta, _ = _band_edge()
    return g, np.array([(0.9, 0.05), beta.bids, (0.55, math.nextafter(1 / 6, 1.0))])


@st.composite
def weighted_stacks(draw):
    """K in 1..4, M in 0..8 and a (B, n) stack of 1 to 5 rows of finite
    per-node totals."""
    g = build_graph(draw(st.integers(1, 4)), draw(st.integers(0, 8)))
    weight = st.floats(-5.0, 5.0)
    row = st.lists(weight, min_size=g.n_nodes, max_size=g.n_nodes)
    return g, np.array(draw(st.lists(row, min_size=1, max_size=5)))


def _mixed_chain_stack():
    """K = 2, M = 4: one row of two-decimal totals, whose best total the
    scan rounds to 11.65 and a step-by-step sum to 11.649999999999999, and
    the same row with -40 at the head of its gap row."""
    g = build_graph(2, 4)
    row = [-4.97, -3.05, -1.58, 4.28, 3.9, -0.19, -0.45, 1.67, 3.59, -1.63, 2.94, -1.01,
           0.94, 2.37]
    low = list(row)
    low[gap(g, 1, 0)] = -40.0
    return g, np.array([row, low])


class TestBlockProperties:
    """The adversary-only half of a round runs on blocks of rounds; each
    block kernel equals its per-round reference."""

    @given(blocks())
    @example(_band_edge_block())
    @settings(max_examples=200, deadline=None)
    def test_block_firing_set_is_the_scalar_scan_round_by_round(self, instance):
        g, block = instance
        events = firing_set(block, g)
        assert events.starts[0] == 0 and events.starts[-1] == len(events)
        for t, row in enumerate(block):
            beta = BidProfile(tuple(row.tolist()))
            scan = [
                (n, g.row[n] // 2 + 1, price)
                for n in range(g.n_nodes)
                for fires, price in [node_fires(n, beta, g)]
                if fires
            ]
            assert list(events[events.starts[t] : events.starts[t + 1]]) == scan

    @given(blocks(), st.sampled_from([0.0, 1e-3]))
    @example(_band_edge_block(), 1e-3)
    @settings(max_examples=200, deadline=None)
    def test_block_event_utilities_are_the_per_round_values(self, instance, offset):
        g, block = instance
        v = Valuation(tuple(np.linspace(1.0, 0.3, g.k).tolist()))
        events = firing_set(block, g)
        per_round = [
            event_utilities(firing_set(row, g), v, offset)
            for row in block
        ]
        assert event_utilities(events, v, offset).tobytes() == np.concatenate(per_round).tobytes()

    @pytest.mark.dispatch
    @given(weighted_stacks(), st.sampled_from(ORDERS))
    @example(_mixed_chain_stack(), "node")
    @example(_mixed_chain_stack(), "C")
    @settings(max_examples=200, deadline=None)
    def test_stacked_best_fixed_total_is_the_one_row_calls(self, instance, order):
        g, stack = instance
        if order == "node":  # as the harness stores its blocks
            stack = np.asfortranarray(stack)
        totals = best_fixed_total(stack, g)
        assert totals.shape == stack.shape[:1]
        one_row = np.array([best_fixed_total(row.copy(), g) for row in stack])
        assert totals.tobytes() == one_row.tobytes()
        for row, total in zip(stack, totals.tolist()):
            assert total == pytest.approx(best_fixed_action_dp(row, g)[1], abs=1e-9)


class TestExpectedUtility:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        g = build_graph(2, 2)
        s = random_state(g, rng)
        beta = BidProfile((0.83, 0.31))
        v = Valuation((1.0, 0.5))
        dist = exact_path_distribution(s)
        enum = sum(
            p * path_utility(path, beta, v, g) for path, p in dist.items()
        )
        assert expected_utility(s, beta, v) == pytest.approx(enum, abs=1e-12)

    def test_high_adversary_leaves_only_top_band(self):
        # adversary above every interior grid point: the only wins are the
        # all-at-1 action (worth 0 with unit values) and single-item wins at
        # the adversary's top bid
        g = build_graph(2, 2)
        s = init_state(g)
        beta = BidProfile((0.999, 0.997))
        v = Valuation((1.0, 1.0))
        fired = set(firing_set(beta.bids, g).ids.tolist())
        assert fired == {bid(g, 2, 2), gap(g, 1, 1)}
        expect = marginals(s)[gap(g, 1, 1)] * (1.0 - 0.999)
        assert expected_utility(s, beta, v) == pytest.approx(expect, abs=1e-15)

    def test_degenerate_single_path(self):
        g = build_graph(1, 0)
        s = init_state(g)
        beta = BidProfile((0.4,))
        v = Valuation((0.9,))
        path = (bid(g, 1, 0),)
        assert expected_utility(s, beta, v) == path_utility(path, beta, v, g)

    @pytest.mark.dispatch
    @given(
        st.lists(
            st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)), max_size=12),
            max_size=6,
        ),
        st.sampled_from(ORDERS),
        st.randoms(use_true_random=False),
    )
    @example([], "C", None)
    @example([[]], "C", None)
    @example([[(0.5, -0.0), (0.0, -1.0)]], "C", None)  # every term -0.0
    @example([[(0.5, -0.0), (0.25, 0.5), (1.0, -0.0)], [], [(0.5, -0.0)]], "node", None)
    @settings(max_examples=200, deadline=None)
    def test_expectation_is_the_loop_from_zero(self, rounds, order, random):
        # a block of rounds, each its terms at distinct node ids of a
        # (B, n) marginal table in either memory order: every round's value
        # is each term added left to right to 0.0
        n = max([len(terms) for terms in rounds] + [1]) + 2
        b = len(rounds)
        marg = np.zeros((b, n)) if order == "C" else np.zeros((n, b)).T
        ids, utilities, loops = [], [], []
        for r, terms in enumerate(rounds):
            at = random.sample(range(n), len(terms)) if random else range(len(terms))
            total = 0.0
            for i, (p, w) in zip(at, terms):
                marg[r, i] = p
                total += p * w
            ids += at
            utilities += [w for _, w in terms]
            loops.append(total)
        starts = np.cumsum([0] + [len(terms) for terms in rounds])
        zeros = np.zeros(len(ids))
        events = Events(np.array(ids, dtype=np.intp), zeros.astype(int), zeros, starts)
        exp = expectation(marg, events, np.array(utilities, dtype=float))
        assert exp.shape == (b,)
        assert exp.tobytes() == np.array(loops, dtype=float).tobytes()


class TestDefaultParameters:
    def test_bandit_default_values(self):
        eps, eta = default_parameters(2, 2000, FeedbackMode.BANDIT)
        assert eps == pytest.approx(0.1)
        assert round(1 / eps) == 10
        assert eta == pytest.approx(
            2 ** (-1 / 3) * 2000 ** (-2 / 3) * math.sqrt(math.log(1000) / 3), rel=1e-12
        )

    def test_full_info_values(self):
        eps, eta = default_parameters(2, 200, FeedbackMode.FULL_INFORMATION)
        assert eps == pytest.approx(0.1)
        assert eta == pytest.approx(math.sqrt(math.log(100) / (2 * 2 * 200)), rel=1e-12)

    def test_allwinner_values(self):
        eps, eta = default_parameters(2, 800, FeedbackMode.ALL_WINNER)
        assert eps == pytest.approx(0.1)
        assert eta == pytest.approx(1 / (2 * math.sqrt(800)), rel=1e-12)

    def test_inverse_epsilon_integral(self):
        for t in (50, 333, 1234, 9999):
            for mode in FeedbackMode:
                eps, _ = default_parameters(3, t, mode)
                m = 1 / eps
                assert m == round(m) and m >= 1

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            default_parameters(5, 5, FeedbackMode.BANDIT)


class TestEdgeCases:
    def test_allwinner_bias_with_adversary_self_tie(self):
        # equal adversary bids make two gap nodes fire at the same price with
        # different allocations; observability must follow allocation, not price
        rng = np.random.default_rng(13)
        g = build_graph(3, 4)
        from uniprice.oracle import exact_estimator_expectation

        beta = BidProfile((0.7, 0.7, 0.2))
        v = Valuation((0.9, 0.6, 0.3))
        for _ in range(3):
            s = random_state(g, rng)
            for mode in (FeedbackMode.BANDIT, FeedbackMode.ALL_WINNER):
                exp = exact_estimator_expectation(s, beta, v, mode)
                for path, e in exp.items():
                    o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
                    target = o.utility - 3
                    assert e == pytest.approx(target, abs=1e-9)

    def test_allwinner_zero_observation_probability_guard(self):
        from uniprice.errors import ZeroObservationProbability

        g = build_graph(2, 2)
        s = init_state(g)
        # concentrate all probability mass on the all-ones action, whose
        # outcome (win both at price 1) hides every lower outcome class
        for node in (bid(g, 1, 2), bid(g, 2, 2)):
            s.log_w[node] = 400.0
        beta = BidProfile((0.8, 0.3))
        # a zero-allocation view claims every node is observable, which is
        # inconsistent with the concentrated state
        fb = Feedback(0, 0.3, beta.bids)
        with pytest.raises(ZeroObservationProbability):
            allwinner_signal(fb, *revealed(fb, g, Valuation((1.0, 0.5))), s)

    def test_allwinner_one_level_grid(self):
        # M = 0: the single level 0 lies below the adversary's bid, so winning
        # nothing reveals its zero-allocation event, observed with certainty
        fb = Feedback(0, 0.4, (0.4,))
        s = init_state(build_graph(1, 0))
        events = revealed(fb, s.graph, Valuation((0.9,)))
        sig = entries(allwinner_signal(fb, *events, s))
        assert sig == {0: -1.0}

    def test_passes_stable_at_extreme_weights(self):
        rng = np.random.default_rng(14)
        g = build_graph(2, 8)
        s = init_state(g)
        s.log_w[:] = rng.uniform(-600, 600, g.n_nodes)
        ensure_passes(s)
        assert math.isfinite(s.log_gamma0)
        assert np.all(np.isfinite(s.backward))
        marg = marginals(s)
        assert np.all((marg >= 0) & (marg <= 1))
        for kk in (1, 2):
            assert marg[g.bid_ids(kk)].sum() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("node", ["h(1,1)", "h(1.5,2)", "h(3,3)"])
    def test_overflowed_weights_keep_raising(self, value, node):
        # a first-row bid node, a mid-row gap node and a last-row bid node
        g = build_graph(3, 4)
        i = [g.label(n) for n in range(g.n_nodes)].index(node)
        s = init_state(g)
        ensure_passes(s)
        with np.errstate(over="ignore", invalid="ignore"):
            update_weights(s, vector({i: value}), 1.0)
            for call in (ensure_passes, marginals, lambda s: sample_path(s, rng_from(0))):
                for _ in range(2):
                    with pytest.raises(WeightOverflow, match=rf"node {re.escape(node)} "):
                        call(s)
                    assert s.dirty_lo <= s.dirty_hi

    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    def test_one_node_check_raises_the_range_checks_line(self, value):
        # one state's one-node dirty range (every bandit round) takes a
        # scalar check: it raises the line of the range check, which a
        # wider range and a batch take (here on its second round), and
        # leaves the state dirty
        g = build_graph(3, 4)
        i = gap(g, 2, 1)
        lines = []
        for rounds, lo, hi in ((None, i, i), (None, i - 1, i + 2), (2, i, i)):
            s = init_state(g, rounds)
            ensure_passes(s)
            (s.log_w if rounds is None else s.log_w[-1])[i] = value
            s.dirty_lo, s.dirty_hi = lo, hi
            for _ in range(2):
                with pytest.raises(WeightOverflow) as raised:
                    ensure_passes(s)
                lines.append(str(raised.value))
                assert (s.dirty_lo, s.dirty_hi) == (lo, hi)
        assert set(lines) == {f"node h(2.5,1) has log weight {value}"}

    def test_finite_weights_whose_sum_overflows_pass_the_check(self):
        # the check's one sum overflows, yet every log weight is finite, so
        # the pass runs and its end checks judge the result
        g = build_graph(2, 4)
        s = init_state(g)
        s.log_w[:] = 2e307
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.add.reduce(s.log_w))
            ensure_passes(s)
        assert s.dirty_lo > s.dirty_hi and math.isfinite(s.log_gamma0)

    @pytest.mark.parametrize(
        "weight, line",
        [
            (1e16, "the first bid row's marginals sum to 5.0, not 1"),
            (1e15, "the first bid row's marginals sum to 0.9460466816141457, not 1"),
        ],
    )
    def test_tied_huge_weights_fail_the_start_row_check(self, weight, line):
        # K = 2, M = 4, every bid node at ``weight`` and every gap node at 0:
        # the end checks pass, but log Gamma_0 absorbs the ties of the
        # paths wrongly, and the first bid row's marginals miss 1
        g = build_graph(2, 4)
        s = init_state(g)
        s.log_w[g.row % 2 == 0] = weight
        backward_pass(s, g.k - 1)  # the end checks alone pass
        for _ in range(2):
            with pytest.raises(WeightOverflow, match=f"^{re.escape(line)}$"):
                ensure_passes(s)
            assert s.dirty_lo <= s.dirty_hi
        # a batch raises its first failing round's line; a good round passes
        batch = init_state(g, 3)
        batch.log_w[1:] = s.log_w
        batch.log_w[2, g.row % 2 == 0] = 1e16
        with pytest.raises(WeightOverflow, match=f"^{re.escape(line)}$"):
            ensure_passes(batch)
        marginals(init_state(g, 1))

    def test_bandit_signal_perturbed_frame_consistency(self):
        # shifted-adversary frame: negative node-space bids never fire
        g = build_graph(2, 2)
        beta_shifted = BidProfile((0.3, -0.004))
        fired = firing_set(beta_shifted.bids, g).ids.tolist()
        assert gap(g, 1, 0) in fired  # 0 < 0.3 < 0.5
        assert all(node_fires(i, beta_shifted, g)[0] for i in fired)
