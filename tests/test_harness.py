import concurrent.futures
import functools
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uniprice import (
    AdversaryKind,
    AdversarySpec,
    BidProfile,
    FeedbackMode,
    PlotScale,
    RegretTrace,
    RunConfig,
    TieMode,
    Valuation,
    best_fixed_action_exhaustive,
    build_graph,
    clear_auction,
    decode,
    enumerate_paths,
    firing_set,
    fit_loglog_slope,
    init_state,
    node_fires,
    node_totals_from_history,
    observed_set_membership,
    run_experiment,
    update_weights,
    write_csv,
    write_svg,
)
from uniprice.auction_core import PricingRule, on_grid
from uniprice.cli import parse_config
from uniprice.errors import (
    ConfigError,
    GridCollision,
    NotMonotone,
    OutOfRange,
    TieDetected,
    WeightOverflow,
    WrongLength,
)
from uniprice.feedback import Feedback, make_feedback
from uniprice import harness
from uniprice.harness import CSV_HEADER, csv_bytes, resolve_parameters, svg_bytes
from uniprice.learner import EstimateVector, default_parameters
from uniprice.pseudo_space import event_utilities

from test_learner import walk_calls


IID2 = AdversarySpec(AdversaryKind.IID_UNIFORM, 2)


def small_config(**kw):
    base = dict(
        k=2,
        horizon=40,
        feedback=FeedbackMode.BANDIT,
        values=(1.0, 0.5),
        adversary=IID2,
        seed=99,
        replications=2,
    )
    base.update(kw)
    return RunConfig(**base)


@st.composite
def cleared_rounds(draw):
    """K in 1..4, a learner and an adversary profile with no bid in
    common, so that LAB clears them without a tie."""
    k = draw(st.integers(1, 4))
    bid = st.floats(0.0, 1.0)
    learner = sorted(draw(st.lists(bid, min_size=k, max_size=k)), reverse=True)
    beta = draw(st.lists(bid.filter(lambda b: b not in learner), min_size=k, max_size=k))
    return BidProfile(tuple(learner)), BidProfile(tuple(sorted(beta, reverse=True)))


@st.composite
def split_histories(draw):
    """K in 1..3, M in 1..6, values in [0, 1], a history of 1..8 off-grid
    adversary profiles as a (T, K) array, and a split of it into two
    blocks, either of which may be empty."""
    k = draw(st.integers(1, 3))
    g = build_graph(k, draw(st.integers(1, 6)))
    off_grid = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(
        lambda b: not on_grid(b, g.epsilon)
    )
    profile = st.lists(off_grid, min_size=k, max_size=k).map(lambda b: sorted(b, reverse=True))
    history = np.array(draw(st.lists(profile, min_size=1, max_size=8)))
    values = Valuation(tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))))
    return g, history, draw(st.integers(0, len(history))), values


class TestFeedbackViews:
    @given(cleared_rounds(), st.sampled_from(list(FeedbackMode)))
    @settings(max_examples=300, deadline=None)
    def test_each_mode_reveals_the_top_adversary_bids(self, profiles, mode):
        # none, the K - x winning bids or all K, highest first
        learner, beta = profiles
        k = beta.k
        o = clear_auction(learner, beta, PricingRule.LAB, Valuation((0.5,) * k))
        fb = make_feedback(mode, o, beta)
        x = o.allocation
        shown = {
            FeedbackMode.BANDIT: 0,
            FeedbackMode.ALL_WINNER: k - x,
            FeedbackMode.FULL_INFORMATION: k,
        }[mode]
        assert fb.revealed == tuple(sorted(beta.bids, reverse=True)[:shown])
        assert fb.allocation == x
        assert (fb.price is None) == (mode is FeedbackMode.BANDIT and x == 0)
        assert fb.price in (None, o.price)

    def test_bandit_hides_price_on_loss(self):
        from uniprice import clear_auction

        o = clear_auction(
            BidProfile((0.0, 0.0)), BidProfile((0.8, 0.3)), PricingRule.LAB,
            Valuation((1.0, 0.5)),
        )
        fb = make_feedback(FeedbackMode.BANDIT, o, BidProfile((0.8, 0.3)))
        assert fb == Feedback(0, None, ())

    def test_allwinner_reveals_only_winning_bids(self):
        from uniprice import clear_auction

        beta = BidProfile((0.8, 0.3))
        o = clear_auction(
            BidProfile((1.0, 0.5)), beta, PricingRule.LAB, Valuation((1.0, 0.5))
        )
        fb = make_feedback(FeedbackMode.ALL_WINNER, o, beta)
        assert fb == Feedback(1, 0.8, (0.8,))

    def test_full_info_reveals_profile(self):
        from uniprice import clear_auction

        beta = BidProfile((0.8, 0.3))
        o = clear_auction(
            BidProfile((1.0, 0.5)), beta, PricingRule.LAB, Valuation((1.0, 0.5))
        )
        fb = make_feedback(FeedbackMode.FULL_INFORMATION, o, beta)
        assert fb == Feedback(1, 0.8, (0.8, 0.3))


class TestConfigValidation:
    def test_frb_learning_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                ["--units", "2", "--horizon", "40", "--feedback", "bandit",
                 "--values", "1,0.5", "--adversary", "iid", "--pricing", "frb"]
            )

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(epsilon=0.3))

    def test_horizon_and_inverse_epsilon_stay_below_2_to_the_53(self):
        # float64 holds every integer below 2**53: validated, not run
        from uniprice.harness import validate_config

        validate_config(small_config(horizon=2**53 - 1))
        validate_config(small_config(epsilon=2.0**-52))
        with pytest.raises(ConfigError, match=f"^horizon {2**53} "):
            validate_config(small_config(horizon=2**53))
        with pytest.raises(ConfigError, match=f"^epsilon {2.0**-53!r} "):
            validate_config(small_config(epsilon=2.0**-53))

    @pytest.mark.parametrize(
        "spec",
        [
            AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(0.0, 2.0)),
            AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(0.6, 0.4)),
            AdversarySpec(
                AdversaryKind.FIRST_PRICE_REDUCTION, 2, bounds=(-0.5, 0.5)
            ),
        ],
        ids=["iid-above-1", "iid-reversed", "firstprice-below-0"],
    )
    @pytest.mark.parametrize("tie_mode", list(TieMode))
    def test_adversary_bounds_outside_unit_interval_rejected(self, spec, tie_mode):
        with pytest.raises(ConfigError):
            run_experiment(small_config(adversary=spec, tie_mode=tie_mode))

    def test_schedule_shorter_than_horizon_rejected(self, monkeypatch):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        spec = AdversarySpec(
            AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31),) * 39
        )
        with pytest.raises(ConfigError):
            run_experiment(small_config(adversary=spec))

    @pytest.mark.parametrize(
        "spec",
        [
            AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(1.0, 0.3)),
            AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(1.0, 1.0)),
            AdversarySpec(
                AdversaryKind.SCHEDULE, 2,
                schedule=((0.7, 0.3),) * 20 + ((1.0, 0.3),) + ((0.7, 0.3),) * 19,
            ),
        ],
        ids=["fixed", "iid", "schedule"],
    )
    def test_perturb_rejects_an_adversary_bid_of_one(self, spec):
        # the learner's top bid is capped at 1 in perturb mode, so a bid of 1
        # would tie it whenever level M is played
        with pytest.raises(ConfigError, match="bid of 1"):
            run_experiment(small_config(adversary=spec, tie_mode=TieMode.PERTURB))

    def test_perturb_accepts_grid_aligned_bids_below_one(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.75, 0.25))
        traces = run_experiment(small_config(adversary=spec, tie_mode=TieMode.PERTURB))
        assert len(traces) == 2

    @pytest.mark.parametrize(
        "spec, error, match",
        [
            (AdversarySpec(AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31),) * 2500
                           + ((0.3, 0.7),) + ((0.83, 0.31),) * 499),
             NotMonotone, r"^schedule row 2501: bids must be non-increasing, got \(0.3, 0.7\)$"),
            (AdversarySpec(AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31),) * 2500
                           + ((20 / 39, 10 / 39),) + ((0.83, 0.31),) * 499),
             TieDetected, "^schedule row 2501: adversary bid 0.5128"),
            (AdversarySpec(AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31),) * 2999
                           + ((0.83,),)),
             WrongLength, "^schedule row 3000: expected 2 bids, got 1$"),
            (AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.83, 1.31)),
             OutOfRange, "^fixed profile: bid 1.31 outside"),
            # top = 1 - (1/39)/sqrt(2) = 0.9819
            (AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2, bounds=(0.99, 1.0)),
             ConfigError, "lower bound 0.99"),
        ],
        ids=["schedule-not-monotone", "schedule-on-grid", "schedule-short-row",
             "fixed-out-of-range", "firstprice-above-top"],
    )
    def test_adversary_contract_fails_before_any_round(self, spec, error, match, monkeypatch):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        with pytest.raises(error, match=match):
            run_experiment(small_config(adversary=spec, horizon=3000, epsilon=1 / 39))

    @pytest.mark.parametrize(
        "spec",
        [AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(x, x)) for x in (0.0, 0.5, 1.0)]
        + [AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2, bounds=(x, x))
           for x in (0.0, 0.5)],
        ids=["iid-0", "iid-half", "iid-1", "firstprice-0", "firstprice-half"],
    )
    def test_single_grid_point_interval_fails_before_any_round(self, spec, monkeypatch):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        with pytest.raises(GridCollision, match=r"is the single value"):
            run_experiment(small_config(adversary=spec, epsilon=0.25))

    def test_single_off_grid_point_interval_runs(self):
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(0.3, 0.3))
        traces = run_experiment(small_config(adversary=spec, epsilon=0.25, replications=1))
        assert len(traces[0].price) == 40

    def test_values_must_match_k(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(values=(1.0,)))

    def test_defaults_filled_from_feedback_mode(self):
        cfg = small_config(horizon=2000)
        eps, eta = resolve_parameters(cfg)
        assert (eps, eta) == default_parameters(2, 2000, FeedbackMode.BANDIT)

    def test_overrides_win(self):
        cfg = small_config(epsilon=0.1, eta=0.05)
        assert resolve_parameters(cfg) == (0.1, 0.05)


class TestRunExperiment:
    def test_trace_shape_and_accounting(self):
        traces = run_experiment(small_config())
        assert len(traces) == 2
        for tr in traces:
            n = len(tr.realized_utility)
            assert n == 40
            assert len(tr.cum_expected_regret) == n
            assert tr.final_regret == tr.cum_expected_regret[-1]
            assert np.all(tr.cum_expected_regret >= -1e-9)
            assert np.all(tr.allocation >= 0) and np.all(tr.allocation <= 2)
            assert tr.discretization_bound[-1] == pytest.approx(
                2 * 40 * tr.epsilon
            )

    def test_t1_degenerate(self):
        # defaults need T > K, so the degenerate horizon takes overrides
        traces = run_experiment(
            small_config(horizon=1, replications=1, epsilon=0.25, eta=0.1)
        )
        tr = traces[0]
        assert len(tr.realized_utility) == 1
        # regret of one round: comparator utility minus the uniform prior's
        assert tr.final_regret == pytest.approx(
            tr.cum_expected_regret[0], abs=1e-12
        )

    @pytest.mark.parametrize("mode", list(FeedbackMode))
    def test_first_round_expected_utility_at_a_band_edge(self, mode):
        # beta_1 one ulp below the level 5/6 fires the gap node h(1.5,4);
        # at t = 1 the weights are uniform over the actions
        beta = BidProfile((math.nextafter(5 / 6, 0.0), 0.3))
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=beta.bids)
        cfg = small_config(
            adversary=spec, feedback=mode, epsilon=1 / 6, eta=0.05,
            horizon=1, replications=1,
        )
        tr = run_experiment(cfg)[0]
        g, v = build_graph(2, 6), Valuation(cfg.values)
        utilities = [
            clear_auction(decode(path, g), beta, PricingRule.LAB, v).utility
            for path in enumerate_paths(g)
        ]
        assert tr.expected_utility[0] == pytest.approx(
            sum(utilities) / len(utilities), abs=1e-12
        )

    def test_determinism(self):
        cfg = small_config()
        a = csv_bytes(run_experiment(cfg))
        b = csv_bytes(run_experiment(cfg))
        assert a == b

    def test_pool_holds_at_most_one_process_per_replication(self, monkeypatch):
        # an in-process stand-in: a real pool would start every worker;
        # run_experiment imports the pool class only when it forks
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        traces = run_experiment(small_config(workers=1000))
        assert sizes == [2]
        assert [tr.run for tr in traces] == [0, 1]

    def test_worker_count_invariance(self):
        cfg1 = small_config(replications=4, workers=1)
        cfg2 = small_config(replications=4, workers=2)
        assert csv_bytes(run_experiment(cfg1)) == csv_bytes(run_experiment(cfg2))

    @pytest.mark.parametrize(
        "mode",
        [FeedbackMode.FULL_INFORMATION, FeedbackMode.BANDIT, FeedbackMode.ALL_WINNER],
    )
    def test_all_modes_run(self, mode):
        traces = run_experiment(small_config(feedback=mode, replications=1))
        assert len(traces) == 1

    def test_regret_accounting_vs_exhaustive(self):
        # with a known schedule the comparator can be recomputed by brute force
        rng = np.random.default_rng(31)
        rows = []
        for _ in range(25):
            while True:
                draw = sorted(rng.uniform(0, 1, 2), reverse=True)
                if all(round(b * 4) != b * 4 for b in draw):
                    rows.append(tuple(draw))
                    break
        spec = AdversarySpec(AdversaryKind.SCHEDULE, 2, schedule=tuple(rows))
        cfg = small_config(
            adversary=spec, horizon=25, replications=1, epsilon=0.25, eta=0.05,
            feedback=FeedbackMode.FULL_INFORMATION,
        )
        tr = run_experiment(cfg)[0]
        g = build_graph(2, 4)
        history = [BidProfile(r) for r in rows]
        _, comp_total = best_fixed_action_exhaustive(history, g, Valuation((1.0, 0.5)))
        expected_regret = comp_total - tr.expected_utility.sum()
        assert tr.final_regret == pytest.approx(expected_regret, abs=1e-9)

    def test_perturb_mode_handles_grid_adversary(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.75, 0.25))
        cfg = small_config(
            adversary=spec, tie_mode=TieMode.PERTURB, epsilon=0.25, eta=0.05,
            horizon=30, replications=1,
        )
        tr = run_experiment(cfg)[0]
        assert len(tr.realized_utility) == 30
        # same config and seed replays identically
        tr2 = run_experiment(cfg)[0]
        assert np.array_equal(tr.realized_utility, tr2.realized_utility)

    def test_validate_mode_rejects_grid_adversary(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.75, 0.25))
        cfg = small_config(adversary=spec, epsilon=0.25, eta=0.05, replications=1)
        from uniprice.errors import TieDetected

        with pytest.raises(TieDetected):
            run_experiment(cfg)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _realized(graph, adversary):
    """Realized events by the scalar reference: the firing nodes, and the
    row-1 bid nodes below every adversary bid (zero-allocation events)."""
    nodes = range(graph.n_nodes)
    fired = [n for n in nodes if node_fires(n, adversary, graph)[0]]
    zero = [
        n for n in nodes
        if graph.row[n] == 0 and graph.levels[graph.level[n]] < adversary.bids[-1]
    ]
    return fired, zero


class TestBlocks:
    """The adversary-only half of each round, and full information's
    learner, run a block of rounds at a time; the output bytes do not
    depend on the rows per block."""

    CONFIGS = {
        "full": small_config(feedback=FeedbackMode.FULL_INFORMATION, horizon=61),
        "bandit": small_config(feedback=FeedbackMode.BANDIT, horizon=61),
        "allwinner": small_config(feedback=FeedbackMode.ALL_WINNER, horizon=61),
        "k3-perturb": small_config(
            k=3, values=(1.0, 0.7, 0.4), horizon=61, tie_mode=TieMode.PERTURB,
            adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, 3),
        ),
        "k3-perturb-full": small_config(
            k=3, values=(1.0, 0.7, 0.4), horizon=61, tie_mode=TieMode.PERTURB,
            feedback=FeedbackMode.FULL_INFORMATION,
            adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, 3),
        ),
    }

    @pytest.mark.dispatch
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_bytes_do_not_depend_on_the_rows_per_block(self, name, monkeypatch):
        # full information's learner runs one batch a block: its walks see
        # exactly the block sizes
        from uniprice import harness

        config = self.CONFIGS[name]
        full = config.feedback is FeedbackMode.FULL_INFORMATION
        n = build_graph(config.k, round(1 / resolve_parameters(config)[0])).n_nodes
        firing_set, sample_paths, calls, batches = harness.firing_set, harness.sample_paths, [], []

        def counted(bids, graph):
            calls.append(len(bids))
            return firing_set(bids, graph)

        def counted_paths(state, u):
            batches.append(len(u))
            return sample_paths(state, u)

        monkeypatch.setattr(harness, "firing_set", counted)
        monkeypatch.setattr(harness, "sample_paths", counted_paths)
        outputs = []
        for rows in (1, 7, 10, config.horizon + 5):
            monkeypatch.setattr(harness, "_BLOCK_BYTES", 8 * n * rows)
            calls.clear()
            batches.clear()
            outputs.append(csv_bytes(run_experiment(config)))
            blocks = [min(rows, config.horizon - t0) for t0 in range(0, config.horizon, rows)]
            assert calls == blocks * config.replications
            assert batches == (blocks * config.replications if full else [])
        assert outputs[1:] == [outputs[0]] * 3

    @pytest.mark.dispatch
    @pytest.mark.parametrize("eta", [1e30, 1e150, 1e308])
    def test_overflow_does_not_depend_on_the_rows_per_block(self, eta, monkeypatch):
        # one row a block is the per-round loop; longer blocks (the last one
        # short at 7 rows) replay a failing block round by round and raise
        # its line
        from uniprice import harness

        config = small_config(
            feedback=FeedbackMode.FULL_INFORMATION, horizon=100, seed=1, replications=1, eta=eta
        )
        n = build_graph(config.k, round(1 / resolve_parameters(config)[0])).n_nodes
        lines = []
        for rows in (1, 7, 10, config.horizon + 5):
            monkeypatch.setattr(harness, "_BLOCK_BYTES", 8 * n * rows)
            with pytest.raises(WeightOverflow) as raised:
                run_experiment(config)
            lines.append(str(raised.value))
        assert lines[0].startswith(f"eta={eta:g} is too large: ")
        assert lines[1:] == [lines[0]] * 3

    @given(split_histories())
    @settings(max_examples=100, deadline=None)
    def test_the_comparator_table_is_node_totals_over_each_prefix(self, instance):
        # each block starts from the previous block's last row
        from uniprice import harness

        g, history, split, values = instance
        profiles = [BidProfile(tuple(row)) for row in history.tolist()]
        totals, t0 = np.zeros(g.n_nodes), 0
        for block in (history[:split], history[split:]):
            events = firing_set(block, g)
            running = harness._running(totals, events, event_utilities(events, values))
            assert running.shape == (len(block) + 1, g.n_nodes)
            assert running[0].tobytes() == totals.tobytes()
            for t in range(t0, t0 + len(block)):
                prefix = node_totals_from_history(profiles[: t + 1], g, values)
                assert running[t - t0 + 1].tobytes() == prefix.tobytes()
            totals, t0 = running[-1].copy(), t0 + len(block)

    @given(split_histories(), st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_the_log_weight_table_is_per_round_update_weights(self, instance, eta, seed):
        # from random log weights; row i is what round i samples from
        from uniprice import harness

        g, history, split, values = instance
        state = init_state(g)
        state.log_w[:] = np.random.default_rng(seed).normal(0.0, 1.0, g.n_nodes)
        log_w = state.log_w.copy()
        for block in (history[:split], history[split:]):
            events = firing_set(block, g)
            weights = harness._running(log_w, events, eta * event_utilities(events, values))
            assert weights.shape == (len(block) + 1, g.n_nodes)
            for i, row in enumerate(block):
                assert weights[i].tobytes() == state.log_w.tobytes()
                round_events = firing_set(row, g)
                signal = EstimateVector(round_events.ids, event_utilities(round_events, values))
                update_weights(state, signal, eta)
            assert weights[-1].tobytes() == state.log_w.tobytes()
            log_w = weights[-1].copy()


class TestDirtyRows:
    """The passes recompute only the rows an update reaches: bandit's one
    node a round spares rows, full information's batched passes compute
    every row of every round."""

    @staticmethod
    def pass_rows(config, monkeypatch):
        """Total bid rows the stacked passes recompute over a run, once for
        each round of a batched pass."""
        from uniprice import learner

        passes, rows = learner.backward_pass, []

        def counted(state, n_rows):
            rows.append(n_rows * (len(state.log_w) if state.log_w.ndim > 1 else 1))
            return passes(state, n_rows)

        monkeypatch.setattr(learner, "backward_pass", counted)
        run_experiment(config)
        return sum(rows)

    @staticmethod
    def config(k, feedback):
        return small_config(
            k=k, feedback=feedback, horizon=200, replications=1,
            values=tuple(1 - i / (2 * k) for i in range(k)),
            adversary=AdversarySpec(AdversaryKind.IID_UNIFORM, k),
        )

    def test_bandit_k8_scans_fewer_rows_than_full_passes(self, monkeypatch):
        config = self.config(8, FeedbackMode.BANDIT)
        full = (config.k - 1) * config.horizon  # every row, one pass a round
        assert self.pass_rows(config, monkeypatch) < full

    def test_full_information_scans_every_row(self, monkeypatch):
        config = self.config(3, FeedbackMode.FULL_INFORMATION)
        assert self.pass_rows(config, monkeypatch) == (config.k - 1) * config.horizon


class TestBenchmarkContract:
    """perfbench/tracing.py wraps the names harness imports and counts from
    their arguments; these checks fail when harness stops calling them the
    way the traced benchmark counts.  Full information runs its learner a
    block of rounds at a time: it calls neither ``make_feedback`` nor
    ``update_weights``, its passes run once per block, and its walks and
    outcomes are block steps, so it calls ``utility_sum`` and
    ``learner._walk`` only for rounds its block walk replays (none in
    these runs); bandit and all-winner call each once a round."""

    @pytest.mark.parametrize("mode", list(FeedbackMode))
    def test_traced_run_counts_rounds_nodes_and_entries(self, mode, monkeypatch):
        from uniprice import harness

        firing_set, make_feedback_ = harness.firing_set, harness.make_feedback
        expected = {"nodes": 0, "entries": 0}
        graphs = []

        @functools.wraps(firing_set)
        def spy_firing_set(adversary, graph):
            graphs.append(graph)
            for row in adversary:  # one block of rounds
                expected["nodes"] += len(_realized(graph, BidProfile(tuple(row.tolist())))[0])
            return firing_set(adversary, graph)

        @functools.wraps(make_feedback_)
        def spy_make_feedback(feedback_mode, outcome, adversary):
            g = graphs[-1]
            fired, zero = _realized(g, adversary)
            if feedback_mode is FeedbackMode.BANDIT:
                expected["entries"] += 1
            elif feedback_mode is FeedbackMode.FULL_INFORMATION:
                expected["entries"] += len(fired)
            else:
                expected["entries"] += sum(
                    observed_set_membership(h, outcome, g) for h in fired + zero
                )
            return make_feedback_(feedback_mode, outcome, adversary)

        monkeypatch.setattr(harness, "firing_set", spy_firing_set)
        monkeypatch.setattr(harness, "make_feedback", spy_make_feedback)
        walks = walk_calls(monkeypatch)
        tracer = _load_tracer()()
        tracer.install()
        try:
            run_experiment(small_config(feedback=mode, horizon=64, replications=1))
        finally:
            tracer.remove()
        assert harness.firing_set is spy_firing_set
        n_spans = len(tracer.start)
        calls = tracer.times(0, n_spans).calls
        rounds = 0 if mode is FeedbackMode.FULL_INFORMATION else 64
        assert calls["feedback.make_feedback"] == rounds
        assert calls["learner.update_weights"] == rounds
        assert tracer.counts["auction_core.utility_sum"] == rounds
        assert len(walks) == rounds
        assert calls["learner.ensure_passes"] >= max(rounds, 1)
        tracer.gap(0, n_spans, "feedback.make_feedback", "learner.update_weights")
        assert tracer.counts["pseudo_space.firing_set.nodes"] == expected["nodes"]
        assert tracer.counts["learner.signal.entries"] == expected["entries"]


class TestPerfbenchHooks:
    """``perfbench/run.py --trace 1`` reads these spans and counts, which
    ``perfbench/tracing.py`` records by patching names in ``harness``; a
    refactor that drops or renames one breaks the traced benchmark.
    ``auction_core.clear_auction`` is still patched but no round calls it:
    ``realized_event`` gives the outcome, so its figure reads 0.  Full
    information's learner batches call neither ``sample_path``,
    ``update_weights`` nor ``make_feedback``, and its block outcome calls
    no ``utility_sum``, so ``auction_core.utility_sum.calls_per_round``
    reads 0 there; the benchmark needs ``update_weights`` and
    ``make_feedback`` called equally often, for the signal gap, and
    ``ensure_passes`` called at least once, for the recompute ratio."""

    BLOCKED = {"learner.sample_path", "learner.update_weights", "feedback.make_feedback"}

    SPANS = (
        "adversaries.next_bids",
        "pseudo_space.firing_set",
        "learner.ensure_passes",
        "learner.sample_path",
        "learner.marginals",
        "learner.update_weights",
        "feedback.make_feedback",
        "oracle.best_fixed_total",
    )

    @pytest.mark.parametrize("mode", list(FeedbackMode))
    def test_every_layer_the_benchmark_reads_is_recorded(self, mode):
        tracer = _load_tracer()()
        tracer.install()
        try:
            run_experiment(small_config(feedback=mode, horizon=20, replications=1))
        finally:
            tracer.remove()
        n_spans = len(tracer.start)
        calls = tracer.times(0, n_spans).calls
        full = mode is FeedbackMode.FULL_INFORMATION
        spans = [name for name in self.SPANS if not (full and name in self.BLOCKED)]
        assert {name: calls.get(name, 0) > 0 for name in spans} == dict.fromkeys(spans, True)
        if full:
            assert [calls.get(name, 0) for name in self.BLOCKED] == [0, 0, 0]
        assert calls["adversaries.next_bids"] == 1  # one block per replication
        tracer.gap(0, n_spans, "feedback.make_feedback", "learner.update_weights")
        assert tracer.counts["learner.backward_pass"] > 0
        assert (tracer.counts["learner.signal.entries"] > 0) is not full
        assert (tracer.counts["auction_core.utility_sum"] > 0) is not full


@pytest.mark.dispatch
class TestGoldenDigests:
    """sha256 of ``csv_bytes`` for fixed runs: a change meant to keep the
    output bytes must keep these.  They date from log Gamma_0 as one
    ``np.logaddexp.reduce`` along the first bid row, which gives the same
    bits under every numpy dispatch; ``test_reference.py`` recomputes
    every column of such runs independently.  numpy's float64 ``exp``
    gives other bits with its AVX-512 loops than without them; every mode
    draws its start levels from the marginals it computes, and bandit and
    all-winner divide their estimates by them, so a run can take another
    path.  Each case
    keeps one digest per dispatch, picked by ``X86_V4``, the AVX-512 level
    that ``NPY_DISABLE_CPU_FEATURES`` can turn off."""

    K2 = ["--units", "2", "--values", "1.0,0.5", "--horizon", "300", "--reps", "2",
          "--adversary", "iid", "--seed", "5"]
    K3_PERTURB = ["--units", "3", "--values", "1,0.7,0.4", "--horizon", "2000",
                  "--tie-mode", "perturb", "--adversary", "iid", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv, with_avx512, without_avx512",
        [
            (K2 + ["--feedback", "full"],
             "ff601a930e54878f05263f8fdeae596d7dc44b8dabd4d2641821052558f9bfbd",
             "ff601a930e54878f05263f8fdeae596d7dc44b8dabd4d2641821052558f9bfbd"),
            (K2 + ["--feedback", "bandit"],
             "2d2b165d6392d7d67f604cf0d5e9501b15c6ec6cebfc1ac3ecccd57be3c9db33",
             "2d2b165d6392d7d67f604cf0d5e9501b15c6ec6cebfc1ac3ecccd57be3c9db33"),
            (K2 + ["--feedback", "allwinner"],
             "a83ef26d2424e970bc12cefc09eadcd41c1a5056545b238228515cc75ff3e793",
             "a83ef26d2424e970bc12cefc09eadcd41c1a5056545b238228515cc75ff3e793"),
            (K3_PERTURB + ["--feedback", "full"],
             "cab52ea702fc26aff3761ac7055063e6c4cde4822cb1680d7f094344ebb229bb",
             "cab52ea702fc26aff3761ac7055063e6c4cde4822cb1680d7f094344ebb229bb"),
            (K3_PERTURB + ["--feedback", "bandit"],
             "d4a98ed515970749df0749ee79353a4ecc0a404589fdb5e5b7c096715c58d7a9",
             "12f2a4302c7df71d00aadf70f455956dc83b305522b9f940378289a52332df7d"),
            (K3_PERTURB + ["--feedback", "allwinner"],
             "4d63da2064f9505d6d45f9c097ea323eb6992043e18296f3d6974d0acd282ae0",
             "c50f570295e01279a2a116946f7351dc60d37e10f7e4558356f8516b5d592b97"),
        ],
        ids=["k2-full", "k2-bandit", "k2-allwinner",
             "k3-perturb-full", "k3-perturb-bandit", "k3-perturb-allwinner"],
    )
    def test_csv_sha256(self, argv, with_avx512, without_avx512):
        from numpy._core._multiarray_umath import __cpu_features__  # numpy 2's path

        digest = with_avx512 if __cpu_features__["X86_V4"] else without_avx512
        traces = run_experiment(parse_config(argv))
        assert hashlib.sha256(csv_bytes(traces)).hexdigest() == digest


class TestCsv:
    def test_schema(self, tmp_path):
        traces = run_experiment(small_config(horizon=3, replications=1))
        out = tmp_path / "t.csv"
        write_csv(traces, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert len(first) == 8

    def test_twelve_significant_digits(self):
        tr = RegretTrace(
            run=0,
            realized_utility=np.array([1 / 3]),
            expected_utility=np.array([2 / 3]),
            cum_expected_regret=np.array([1 / 7]),
            discretization_bound=np.array([0.5]),
            price=np.array([0.123456789012345]),
            allocation=np.array([1]),
            final_regret=1 / 7,
            wall_clock=0.0,
            epsilon=0.25,
            eta=0.1,
        )
        text = csv_bytes([tr]).decode()
        assert "0.333333333333" in text
        assert "0.123456789012" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            csv_bytes([])

    @staticmethod
    def f_string_csv(traces):
        """The row-by-row f-string writer that ``csv_bytes`` replaced."""
        lines = [CSV_HEADER]
        for tr in traces:
            columns = (
                tr.realized_utility, tr.expected_utility, tr.cum_expected_regret,
                tr.discretization_bound, tr.price, tr.allocation,
            )
            for t, (r, e, c, d, p, x) in enumerate(zip(*(col.tolist() for col in columns)), 1):
                lines.append(f"{tr.run},{t},{r:.12g},{e:.12g},{c:.12g},{d:.12g},{p:.12g},{int(x)}")
        return ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize(
        "horizon", [1, harness._CSV_CHUNK - 1, harness._CSV_CHUNK, harness._CSV_CHUNK + 1]
    )
    def test_bytes_equal_the_f_string_writer(self, horizon):
        edge = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, 123456789012.5, 1 / 3, -2.5e-7])
        rng = np.random.default_rng(horizon)

        def column(shift):
            values = np.roll(np.resize(edge, horizon), shift)
            return np.where(rng.random(horizon) < 0.5, values, rng.normal(0, 1e3, horizon))

        traces = [
            RegretTrace(
                run=run,
                realized_utility=column(0),
                expected_utility=column(1),
                cum_expected_regret=column(2),
                discretization_bound=column(3),
                price=column(4),
                allocation=rng.integers(0, 3, horizon),
                final_regret=0.0,
                wall_clock=0.0,
                epsilon=0.1,
                eta=0.1,
            )
            for run in (3, 12)
        ]
        data = csv_bytes(traces)
        assert data == self.f_string_csv(traces)
        assert data.count(b"\n") == 2 * horizon + 1


class TestSvg:
    @staticmethod
    def trace_of(regret, allowance=None):
        horizon = len(regret)
        return RegretTrace(
            run=0,
            realized_utility=np.zeros(horizon),
            expected_utility=np.zeros(horizon),
            cum_expected_regret=regret,
            discretization_bound=np.zeros(horizon) if allowance is None else allowance,
            price=np.zeros(horizon),
            allocation=np.zeros(horizon, dtype=int),
            final_regret=float(regret[-1]),
            wall_clock=0.0,
            epsilon=0.1,
            eta=0.1,
        )

    def synthetic_trace(self, exponent, horizon=512):
        return self.trace_of(np.arange(1, horizon + 1, dtype=float) ** exponent)

    def test_slope_annotation(self, tmp_path):
        tr = self.synthetic_trace(2.0 / 3.0)
        out = tmp_path / "p.svg"
        write_svg([tr], str(out), PlotScale.LOGLOG)
        text = out.read_text()
        m = re.search(r"fitted slope: ([0-9.]+)", text)
        assert m is not None
        assert abs(float(m.group(1)) - 0.667) <= 0.01

    def test_fit_loglog_slope_exact(self):
        t = np.arange(1, 200, dtype=float)
        assert fit_loglog_slope(t, t**0.5) == pytest.approx(0.5, abs=1e-9)

    def test_self_contained(self):
        tr = self.synthetic_trace(0.5)
        text = svg_bytes([tr], PlotScale.LINEAR).decode()
        assert text.startswith("<svg")
        assert "href" not in text and "url(" not in text
        assert text.count("http") == 1  # only the xmlns namespace

    def test_band_covers_replications(self):
        a = self.synthetic_trace(0.5)
        b = self.synthetic_trace(0.6)
        data = svg_bytes([a, b], PlotScale.LINEAR)
        assert b"polygon" in data

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svg_bytes([])

    def test_deterministic_bytes(self):
        tr = self.synthetic_trace(0.5)
        assert svg_bytes([tr], PlotScale.LOGLOG) == svg_bytes([tr], PlotScale.LOGLOG)

    @staticmethod
    def y_ticks(text):
        return re.findall(r'text-anchor="end" [^>]*>([^<]*)</text>', text)

    def test_loglog_y_range_ignores_nonpositive_band_edges(self):
        t = np.arange(1, 201, dtype=float)
        traces = [self.trace_of(3 * t**0.6), self.trace_of(3 * t**0.6 - 5)]
        text = svg_bytes(traces, PlotScale.LOGLOG).decode()
        # log10 of the mean's 0.5 at t = 1 up to log10(3 * 200**0.6)
        assert self.y_ticks(text)[:4] == ["0", "0.5", "1", "1.5"]
        band = re.search(r'<polygon points="([^"]*)"', text).group(1).split()
        # the lower edge is at or below 0 for t = 1, 2: drawn on the bottom axis
        assert [p.split(",")[1] for p in band[-2:]] == ["430.00", "430.00"]
        assert max(float(p.split(",")[1]) for p in band) == 430.0

    @pytest.mark.parametrize("scale", list(PlotScale))
    def test_allowance_line_is_clipped_to_the_band(self, scale):
        t = np.arange(1, 513, dtype=float)
        trace = self.trace_of(3 * t**0.6, allowance=0.25 * t)
        text = svg_bytes([trace], scale).decode()
        assert "K&#183;t&#183;&#949; allowance: 128 at T = 512</text>" in text
        ends = re.search(
            r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" stroke="#d95f0e"', text
        ).groups()
        # 0.25 t leaves the band's top, 3 * 512**0.6, at t = 12 * 512**0.6
        top = 12 * 512**0.6
        if scale is PlotScale.LINEAR:  # y from 0; starts at t = 1, inside
            expected = (70, 430 - 0.25 / (3 * 512**0.6) * 400, 70 + (top - 1) / 511 * 630, 30)
        else:  # y from log10 3, which 0.25 t crosses at t = 12
            x = lambda t: 70 + math.log10(t) / math.log10(512) * 630
            expected = (x(12), 430, x(top), 30)
        assert [float(v) for v in ends] == pytest.approx(expected, abs=0.006)

    def test_allowance_above_the_band_keeps_only_its_label(self):
        t = np.arange(1, 101, dtype=float)
        trace = self.trace_of(np.full(100, 0.5), allowance=t)
        text = svg_bytes([trace], PlotScale.LINEAR).decode()
        assert 'stroke="#d95f0e"' not in text
        assert "allowance: 100 at T = 100" in text

    @staticmethod
    def points(text, tag):
        return re.search(rf'<{tag} points="([^"]*)"', text).group(1).split()

    @classmethod
    def lines(cls, text):
        """The mean polyline and the band's upper and lower edges, each in round order."""
        band = cls.points(text, "polygon")
        xs = [float(p.split(",")[0]) for p in band]
        split = next(i for i in range(1, len(xs)) if xs[i] <= xs[i - 1])
        return [cls.points(text, "polyline"), band[:split], band[split:][::-1]]

    @settings(max_examples=40, deadline=None)
    @example(horizon=1, kind="constant", scale=PlotScale.LINEAR, reps=1, seed=0)
    @example(horizon=5000, kind="monotone", scale=PlotScale.LINEAR, reps=2, seed=0)
    @example(horizon=5000, kind="noisy", scale=PlotScale.LOGLOG, reps=3, seed=0)
    @given(
        horizon=st.integers(1, 5000),
        kind=st.sampled_from(["monotone", "noisy", "constant"]),
        scale=st.sampled_from(list(PlotScale)),
        reps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_envelope_keeps_each_columns_extremes(self, horizon, kind, scale, reps, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(1, horizon + 1, dtype=float)
        base = {"monotone": 3 * t**0.6, "noisy": 3 * t**0.6, "constant": np.full(horizon, 2.0)}
        noise = 2.0 if kind == "noisy" else 0.0
        traces = [
            self.trace_of(base[kind] + r + noise * rng.standard_normal(horizon))
            for r in range(reps)
        ]
        mean = np.mean([tr.cum_expected_regret for tr in traces], axis=0)
        if scale is PlotScale.LOGLOG:
            assume((mean > 0).sum() >= 2)
            x = np.log10(t[mean > 0])
        else:
            x = t
        span = x[-1] - x[0] if x[-1] > x[0] else 1.0
        cols = np.floor(70.0 + (x - x[0]) / span * 630.0)
        first, count = np.unique(cols, return_index=True, return_counts=True)[1:]
        last = first + count - 1

        text = svg_bytes(traces, scale).decode()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_m4", lambda px, py: np.arange(px.size))
            full_text = svg_bytes(traces, scale).decode()
        for kept, full in zip(self.lines(text), self.lines(full_text)):
            assert len(full) == x.size
            index = {p: i for i, p in enumerate(full)}
            assert len(index) == len(full)
            idx = np.array([index[p] for p in kept])  # a KeyError: not on the full line
            assert (np.diff(idx) > 0).all()  # a subsequence, in round order
            assert idx[0] == 0 and idx[-1] == len(full) - 1
            on = np.zeros(len(full), dtype=bool)
            on[idx] = True
            assert on[first].all() and on[last].all()
            column = np.searchsorted(first, idx, side="right") - 1
            assert np.bincount(column).max() <= 4
            ys = np.array([float(p.split(",")[1]) for p in full])
            lowest = np.minimum.reduceat(np.where(on, ys, np.inf), first)
            highest = np.maximum.reduceat(np.where(on, ys, -np.inf), first)
            assert (lowest == np.minimum.reduceat(ys, first)).all()
            assert (highest == np.maximum.reduceat(ys, first)).all()

    def test_output_loads_no_module_beyond_the_package_import(self):
        """``np.unique`` imports ``numpy.ma`` on first use, which the package
        does not otherwise load: 0.4-0.5 MB more peak RSS after ``import
        uniprice``.  Output must not pull in modules like it."""
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import uniprice",
            "from uniprice.harness import PlotScale, RegretTrace, csv_bytes, svg_bytes",
            "t = np.arange(1, 3001, dtype=float)",
            "def trace(regret):",
            "    z = np.zeros(t.size)",
            "    return RegretTrace(0, z, z, regret, 0.05 * t, z, z.astype(int),",
            "                       float(regret[-1]), 0.0, 0.1, 0.1)",
            "traces = [trace(3 * t**0.6), trace(3 * t**0.6 - 5 + np.sin(t))]",
            "before = set(sys.modules)",
            "csv_bytes(traces)",
            "svg_bytes(traces, PlotScale.LINEAR)",
            "svg_bytes(traces, PlotScale.LOGLOG)",
            "print(sorted(set(sys.modules) - before))",
        ])
        assert run_python(code) == "[]"


def run_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports the
    package from this checkout's ``src``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestImports:
    def test_only_a_run_that_forks_loads_the_pool(self):
        """The process pool's modules (``multiprocessing``, ``socket``,
        ``logging`` and more: 32 modules and 2 MB of RSS) load only for a
        run with more than one worker and replication, so the import,
        ``parse_config`` and a one-process run stay without them; a pooled
        run then gives the same bytes."""
        code = "\n".join([
            "import json, sys",
            "import uniprice",
            "from uniprice import cli",
            "from uniprice.harness import csv_bytes, run_experiment",
            "def pool_modules():",
            "    return sorted(m for m in sys.modules",
            "                  if m.split('.')[0] in ('concurrent', 'multiprocessing'))",
            "argv = ['--feedback', 'bandit', '--units', '2', '--values', '1.0,0.5',",
            "        '--adversary', 'iid', '--horizon', '60', '--reps', '2', '--seed', '3']",
            "one = csv_bytes(run_experiment(cli.parse_config(argv + ['--workers', '1'])))",
            "serial = pool_modules()",
            "two = csv_bytes(run_experiment(cli.parse_config(argv + ['--workers', '2'])))",
            "print(json.dumps([serial, pool_modules(), one == two]))",
        ])
        serial, pooled, same_bytes = json.loads(run_python(code))
        assert serial == []
        assert {"concurrent.futures.process", "multiprocessing"} <= set(pooled)
        assert same_bytes
