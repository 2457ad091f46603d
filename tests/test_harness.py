import functools
import hashlib
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from uniprice.harness import CSV_HEADER, csv_bytes, resolve_parameters, svg_bytes
from uniprice.learner import EstimateVector, default_parameters
from uniprice.pseudo_space import event_utilities


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
        # an in-process stand-in: a real pool would start every worker
        from uniprice import harness

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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
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
    ``update_weights``, and its passes run once per block."""

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
    ``update_weights`` nor ``make_feedback``; the benchmark needs those two
    last called equally often, for the signal gap, and ``ensure_passes``
    called at least once, for the recompute ratio."""

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


class TestSvg:
    def synthetic_trace(self, exponent, horizon=512):
        t = np.arange(1, horizon + 1, dtype=float)
        regret = t**exponent
        return RegretTrace(
            run=0,
            realized_utility=np.zeros(horizon),
            expected_utility=np.zeros(horizon),
            cum_expected_regret=regret,
            discretization_bound=np.zeros(horizon),
            price=np.zeros(horizon),
            allocation=np.zeros(horizon, dtype=int),
            final_regret=float(regret[-1]),
            wall_clock=0.0,
            epsilon=0.1,
            eta=0.1,
        )

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
