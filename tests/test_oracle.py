import numpy as np
import pytest

from uniprice import (
    BidProfile,
    FeedbackMode,
    PricingRule,
    Valuation,
    best_fixed_action_dp,
    best_fixed_action_exhaustive,
    best_fixed_total,
    build_graph,
    clear_auction,
    decode,
    enumerate_paths,
    exact_estimator_expectation,
    exact_path_distribution,
    exact_second_moment,
    init_state,
    node_totals_from_history,
    sub_utility,
)
from uniprice.errors import TooLarge


def off_grid_profile(rng, k, m):
    while True:
        draws = sorted(rng.uniform(0, 1, k), reverse=True)
        if all(round(b * m) / m != b and 0 < b < 1 for b in draws):
            return BidProfile(tuple(draws))


def random_state(graph, rng, scale=1.0):
    s = init_state(graph)
    s.log_w[:] = rng.normal(0.0, scale, graph.n_nodes)
    return s


class TestComparators:
    def test_empty_history_total_zero(self):
        g = build_graph(2, 2)
        path, total = best_fixed_action_exhaustive([], g, Valuation((1.0, 0.5)))
        assert total == 0.0
        dp_path, dp_total = best_fixed_action_dp(np.zeros(g.n_nodes), g)
        assert dp_total == 0.0
        assert dp_path == path  # both sides break ties lexicographically

    def test_single_round_optimum(self):
        # optimum wins exactly one item just above the adversary's low bid
        g = build_graph(2, 4)
        beta = BidProfile((0.8, 0.3))
        v = Valuation((1.0, 0.5))
        path, total = best_fixed_action_exhaustive([beta], g, v)
        bids = decode(path, g)
        o = clear_auction(bids, beta, PricingRule.LAB, v)
        assert o.allocation == 1
        assert total == max(
            clear_auction(decode(p, g), beta, PricingRule.LAB, v).utility
            for p in enumerate_paths(g)
        )

    def test_dp_matches_exhaustive_random_histories(self):
        rng = np.random.default_rng(21)
        for k, m in [(1, 3), (2, 2), (2, 4), (3, 3)]:
            g = build_graph(k, m)
            for _ in range(15):
                t = int(rng.integers(1, 25))
                history = [off_grid_profile(rng, k, m) for _ in range(t)]
                v = Valuation(tuple(rng.uniform(0, 1, k)))
                ex_path, ex_total = best_fixed_action_exhaustive(history, g, v)
                totals = node_totals_from_history(history, g, v)
                dp_path, dp_total = best_fixed_action_dp(totals, g)
                assert dp_path == ex_path
                assert dp_total == pytest.approx(ex_total, abs=1e-9)
                assert best_fixed_total(totals, g) == pytest.approx(dp_total, abs=1e-9)

    def test_single_positive_node_dominates(self):
        g = build_graph(2, 2)
        totals = np.zeros(g.n_nodes)
        node = 3
        totals[node] = 1.0
        path, total = best_fixed_action_dp(totals, g)
        assert node in path
        assert total == 1.0

    def test_node_totals_accumulate_sub_utilities(self):
        rng = np.random.default_rng(22)
        g = build_graph(2, 3)
        history = [off_grid_profile(rng, 2, 3) for _ in range(7)]
        v = Valuation((0.9, 0.6))
        totals = node_totals_from_history(history, g, v)
        for node in range(g.n_nodes):
            direct = sum(sub_utility(node, beta, v, g) for beta in history)
            assert totals[node] == pytest.approx(direct, abs=1e-12)


class TestExactDistribution:
    def test_uniform_weights_uniform_distribution(self):
        g = build_graph(2, 2)
        dist = exact_path_distribution(init_state(g))
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in dist.values())

    def test_normalization(self):
        rng = np.random.default_rng(23)
        g = build_graph(3, 3)
        dist = exact_path_distribution(random_state(g, rng, 2.0))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        g = build_graph(3, 4)
        with pytest.raises(TooLarge):
            exact_path_distribution(init_state(g), cap=5)


class TestEstimatorExpectations:
    def test_full_information_is_exact_utility(self):
        rng = np.random.default_rng(24)
        g = build_graph(2, 2)
        s = random_state(g, rng)
        beta = off_grid_profile(rng, 2, 2)
        v = Valuation((1.0, 0.5))
        exp = exact_estimator_expectation(s, beta, v, FeedbackMode.FULL_INFORMATION)
        for path, e in exp.items():
            o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
            assert e == pytest.approx(o.utility, abs=1e-12)

    @pytest.mark.parametrize("mode", [FeedbackMode.BANDIT, FeedbackMode.ALL_WINNER])
    def test_partial_feedback_bias(self, mode):
        rng = np.random.default_rng(25)
        g = build_graph(2, 2)
        for _ in range(5):
            s = random_state(g, rng)
            beta = off_grid_profile(rng, 2, 2)
            v = Valuation(tuple(rng.uniform(0, 1, 2)))
            exp = exact_estimator_expectation(s, beta, v, mode)
            for path, e in exp.items():
                o = clear_auction(decode(path, g), beta, PricingRule.LAB, v)
                target = o.utility - 2
                assert e == pytest.approx(target, abs=1e-9)

    def test_second_moment_finite_and_positive(self):
        rng = np.random.default_rng(26)
        g = build_graph(2, 2)
        s = random_state(g, rng)
        beta = off_grid_profile(rng, 2, 2)
        v = Valuation((1.0, 0.5))
        m_bandit = exact_second_moment(s, beta, v, FeedbackMode.BANDIT)
        m_aw = exact_second_moment(s, beta, v, FeedbackMode.ALL_WINNER)
        assert 0 <= m_aw <= m_bandit  # richer feedback cannot raise the moment
