import warnings

import pytest

from uniprice import FeedbackMode, RunConfig, TieMode
from uniprice.adversaries import AdversaryKind
from uniprice.cli import _build_parser, main, parse_adversary, parse_config
from uniprice.errors import ConfigError
from uniprice.learner import default_parameters
from uniprice.harness import resolve_parameters


MINIMAL = [
    "--units", "2",
    "--horizon", "1000",
    "--feedback", "bandit",
    "--adversary", "fixed:0.83,0.31",
    "--values", "1,0.5",
    "--seed", "7",
]

# every long flag but --config and --help: the keys a config file may set
FILE_KEYS = sorted(
    opt[2:]
    for action in _build_parser()._actions
    for opt in action.option_strings
    if opt.startswith("--") and opt not in ("--config", "--help")
)
# a value for each, unlike its default and MINIMAL's
FLAG_SAMPLES = {
    "units": "3", "horizon": "500", "feedback": "allwinner",
    "pricing": "frb", "values": "1,0.25", "adversary": "iid:0.2,0.9",
    "epsilon": "0.1", "eta": "0.05", "seed": "11", "reps": "3",
    "tie-mode": "perturb", "workers": "2", "out": "x.csv", "plot": "x.svg",
    "scale": "loglog",
}


class TestParseConfig:
    def test_minimal_flags_fill_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.k == 2 and cfg.horizon == 1000 and cfg.seed == 7
        assert cfg.feedback is FeedbackMode.BANDIT
        assert cfg.tie_mode is TieMode.VALIDATE
        assert cfg.adversary.kind is AdversaryKind.FIXED
        assert cfg.adversary.fixed_profile == (0.83, 0.31)
        assert resolve_parameters(cfg) == default_parameters(
            2, 1000, FeedbackMode.BANDIT
        )

    def test_missing_horizon_errors(self):
        args = [a for i, a in enumerate(MINIMAL) if i not in (2, 3)]
        with pytest.raises(ConfigError):
            parse_config(args)

    def test_epsilon_override(self):
        cfg = parse_config(MINIMAL + ["--epsilon", "0.1"])
        eps, _ = resolve_parameters(cfg)
        assert round(1 / eps) == 10

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "units=2\nhorizon=500\nfeedback=full\n"
            "adversary=iid\nvalues=1,0.5\nseed=3\nreps=2\n# comment\n"
        )
        cfg = parse_config(["--config", str(path), "--horizon", "750"])
        assert cfg.horizon == 750  # flag wins
        assert cfg.feedback is FeedbackMode.FULL_INFORMATION
        assert cfg.replications == 2

    @staticmethod
    def file_and_flag_errors(key, value, tmp_path, capsys):
        """stderr of main with ``key=value`` in a config file, then with
        ``--key value`` as a flag; the other settings come from the file."""
        settings = {
            "units": "2", "horizon": "60", "feedback": "full", "adversary": "iid",
            "values": "1,0.5",
        }
        path = tmp_path / "run.cfg"
        errors = []
        for in_file in (True, False):
            lines = {**settings, key: value} if in_file else settings
            path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
            flag = [] if in_file else [f"--{key}", value]
            assert main(["--config", str(path)] + flag) == 2
            errors.append(capsys.readouterr().err)
        return errors

    @pytest.mark.parametrize(
        "key, value",
        [("units", "abc"), ("horizon", "1.5"), ("seed", "x"), ("reps", "two"),
         ("workers", ""), ("epsilon", "tenth"), ("eta", "fast")],
    )
    def test_bad_number_in_config_file_exits_2(self, key, value, tmp_path, capsys):
        from_file, from_flag = self.file_and_flag_errors(key, value, tmp_path, capsys)
        assert from_file == from_flag
        assert from_file.startswith("error: ") and from_file.count("\n") == 1
        assert f"--{key}" in from_file

    @pytest.mark.parametrize(
        "key, allowed",
        [("feedback", ["full", "bandit", "allwinner"]),
         ("pricing", ["lab", "frb"]),
         ("tie-mode", ["validate", "perturb"]),
         ("scale", ["linear", "loglog"])],
    )
    def test_bad_choice_lists_the_allowed_values(self, key, allowed, tmp_path, capsys):
        from_file, from_flag = self.file_and_flag_errors(key, "nope", tmp_path, capsys)
        assert from_file == from_flag
        assert from_file.startswith(f"error: argument --{key}: ")
        assert from_file.count("\n") == 1
        assert all(name in from_file for name in allowed)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("units=2\nbogus=1\n")
        with pytest.raises(ConfigError):
            parse_config(["--config", str(path)])

    @staticmethod
    def outcome(argv):
        try:
            return parse_config(argv)
        except ConfigError as exc:
            return str(exc)

    @pytest.mark.parametrize("key", FILE_KEYS)
    def test_a_file_value_acts_as_the_flag(self, key, tmp_path):
        # a flag that a file cannot set, or a key that is read and then
        # ignored, gives a different RunConfig (or error) for the two sources;
        # a flag with no FLAG_SAMPLES entry fails here with a KeyError
        flags = dict(zip(MINIMAL[::2], MINIMAL[1::2]))
        argv = [a for f, v in flags.items() if f != f"--{key}" for a in (f, v)]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={FLAG_SAMPLES[key]}\n")
        from_flag = self.outcome(argv + [f"--{key}", FLAG_SAMPLES[key]])
        from_file = self.outcome(argv + ["--config", str(path)])
        # only --pricing frb is an error, the one non-default pricing
        assert isinstance(from_flag, RunConfig) or from_flag.startswith("learning runs")
        assert from_file == from_flag
        assert from_file != self.outcome(MINIMAL)


class TestParseAdversary:
    def test_fixed(self):
        spec = parse_adversary("fixed:0.83,0.31", 2)
        assert spec.kind is AdversaryKind.FIXED

    def test_iid_with_bounds(self):
        spec = parse_adversary("iid:0.2,0.9", 3)
        assert spec.bounds == (0.2, 0.9)

    def test_firstprice_constant(self):
        spec = parse_adversary("firstprice:0.27", 2)
        assert spec.h_value == 0.27

    def test_firstprice_uniform(self):
        spec = parse_adversary("firstprice:uniform:0.1,0.9", 2)
        assert spec.h_value is None and spec.bounds == (0.1, 0.9)

    def test_schedule_file(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("0.83,0.31\n0.61,0.11\n")
        spec = parse_adversary(f"schedule:{path}", 2)
        assert spec.schedule == ((0.83, 0.31), (0.61, 0.11))

    @pytest.mark.parametrize("text", ["mystery:1", "iiduniform"])
    def test_unknown_kind(self, text):
        with pytest.raises(ConfigError):
            parse_adversary(text, 2)


class TestMain:
    def test_end_to_end_with_outputs(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        plot = tmp_path / "run.svg"
        code = main(
            [
                "--units", "2",
                "--horizon", "60",
                "--feedback", "bandit",
                "--adversary", "iid",
                "--values", "1,0.5",
                "--seed", "5",
                "--reps", "2",
                "--out", str(out),
                "--plot", str(plot),
                "--scale", "loglog",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "final regret" in captured
        assert out.exists() and plot.exists()
        assert out.read_text().count("\n") == 121  # header + 2 reps x 60 rounds

    def test_error_exit_code(self, capsys):
        assert main(["--units", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def assert_one_line_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_output_exits_2_before_simulating(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        from uniprice import cli

        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: runs.append(config))
        for target in (tmp_path / "missing" / "x.out", tmp_path):
            self.assert_one_line_error(MINIMAL + [flag, str(target)], capsys)
        assert runs == []

    @pytest.mark.parametrize("plot", ["same.x", "./same.x", "{tmp}/same.x"])
    def test_out_and_plot_on_one_file_exit_2_before_simulating(
        self, plot, tmp_path, capsys, monkeypatch
    ):
        from uniprice import cli

        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: runs.append(config))
        monkeypatch.chdir(tmp_path)
        argv = MINIMAL + ["--out", "same.x", "--plot", plot.format(tmp=tmp_path)]
        self.assert_one_line_error(argv, capsys)
        assert runs == [] and not (tmp_path / "same.x").exists()

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_an_output_on_the_config_file_exits_2_and_keeps_it(
        self, flag, tmp_path, capsys, monkeypatch
    ):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        monkeypatch.chdir(tmp_path)
        text = (
            "units=2\nhorizon=60\nfeedback=bandit\nvalues=1,0.5\n"
            "adversary=iid\nseed=3\n"
        )
        (tmp_path / "run.cfg").write_text(text)
        self.assert_one_line_error(["--config", "run.cfg", flag, "./run.cfg"], capsys)
        assert (tmp_path / "run.cfg").read_text() == text

    def test_bad_schedule_row_exits_2_naming_the_row(self, tmp_path, capsys):
        rows = ["0.83,0.31"] * 3000
        rows[2500] = "0.3,0.7"
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("\n".join(rows) + "\n")
        out = tmp_path / "x.csv"
        argv = [
            "--units", "2", "--horizon", "3000", "--feedback", "full",
            "--values", "1,0.5", "--seed", "1",
            "--adversary", f"schedule:{schedule}", "--out", str(out),
        ]
        self.assert_one_line_error(argv, capsys)
        assert not out.exists()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: schedule row 2501: bids must be non-increasing, got (0.3, 0.7)\n"
        )

    def test_first_price_bounds_above_the_top_exit_2_before_any_round(
        self, capsys, monkeypatch
    ):
        # top = 1 - 0.25/sqrt(2) = 0.8232: h would be drawn from (0.8232, 0.95],
        # below its lower bound and above the top bids
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        argv = [
            "--units", "2", "--horizon", "200", "--feedback", "bandit",
            "--values", "1,0", "--adversary", "firstprice:uniform:0.95,1",
            "--epsilon", "0.25", "--seed", "1",
        ]
        self.assert_one_line_error(argv, capsys)

    def test_firstprice_trailing_text_exits_2_before_any_round(self, capsys, monkeypatch):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        i = MINIMAL.index("--adversary")
        argv = MINIMAL[: i + 1] + ["firstprice:0.3:junk"] + MINIMAL[i + 2 :]
        assert "'firstprice:0.3:junk'" in self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize("text", ["iid:", "firstprice:", "firstprice:uniform:", "fixed:"])
    def test_empty_adversary_parameter_exits_2_before_any_round(self, text, capsys, monkeypatch):
        from uniprice import harness

        def no_rounds(config, rep):
            raise AssertionError("a round ran before the check")

        monkeypatch.setattr(harness, "_run_replication", no_rounds)
        i = MINIMAL.index("--adversary")
        argv = MINIMAL[: i + 1] + [text] + MINIMAL[i + 2 :]
        assert f"'{text}'" in self.assert_one_line_error(argv, capsys)

    def test_malformed_adversary_bounds_exit_2(self, capsys):
        i = MINIMAL.index("--adversary")
        argv = MINIMAL[: i + 1] + ["iid:0.5"] + MINIMAL[i + 2 :]
        self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--epsilon", "0"],
            ["--epsilon", "nan"],
            ["--epsilon", "1e-320"],
            ["--eta", "nan"],
            ["--eta", "inf"],
            ["--seed", "-1"],
            ["--pricing", "frb"],
            ["--config", "{tmp}/missing.cfg"],
            ["--config", "{tmp}"],
            ["--config", "{tmp}/latin1.cfg"],
            ["--adversary", "schedule:{tmp}/latin1.txt"],
            ["--units", "abc"],
            ["--feedback", "nope"],
            ["--bogus"],
        ],
        ids=lambda extra: " ".join(extra),
    )
    def test_bad_input_exits_2(self, extra, tmp_path, capsys):
        (tmp_path / "latin1.cfg").write_bytes(b"units=2\n# caf\xe9\n")
        (tmp_path / "latin1.txt").write_bytes(b"0.83,0.31\n# caf\xe9\n")
        argv = MINIMAL + [arg.format(tmp=tmp_path) for arg in extra]
        self.assert_one_line_error(argv, capsys)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epsilon", "1e-18"),
            ("--epsilon", "1e-19"),
            ("--epsilon", "1e-300"),
            ("--horizon", "100000000000000000000"),
        ],
    )
    def test_inputs_past_exact_float_integers_exit_2_naming_the_value(
        self, flag, value, capsys
    ):
        # each once ended in a traceback: a graph or a horizon array too big
        # to describe, or a 1/eps past the integers float64 holds
        argv = ["--units", "2", "--values", "1,0.5", "--adversary", "iid",
                "--feedback", "bandit", "--horizon", "5", flag, value]
        assert value in self.assert_one_line_error(argv, capsys)

    def test_loglog_plot_of_zero_regret_exits_2_and_keeps_the_csv(
        self, tmp_path, capsys
    ):
        # M=1 against a bid of 0.5: bid 1 wins at price 1 and bid 0 wins
        # nothing, so regret is 0 every round and the slope fit has no points
        out, plot = tmp_path / "run.csv", tmp_path / "run.svg"
        argv = [
            "--units", "1", "--horizon", "5", "--feedback", "full",
            "--values", "1", "--adversary", "fixed:0.5", "--epsilon", "1",
            "--out", str(out), "--plot", str(plot), "--scale", "loglog",
        ]
        self.assert_one_line_error(argv, capsys)
        assert out.read_text().count("\n") == 6 and not plot.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--feedback", "full", "--eta", "1e308"],
            ["--feedback", "allwinner", "--eta", "1e308"],
            ["--feedback", "bandit", "--eta", "1e308"],
            ["--feedback", "full", "--eta", "1e200"],
            ["--feedback", "bandit", "--epsilon", "0.5", "--eta", "1e300"],
        ],
        ids=lambda extra: " ".join(extra),
    )
    def test_overflowing_weights_exit_2_naming_eta_and_write_no_csv(
        self, extra, tmp_path, capsys
    ):
        # a huge finite eta drives the log weights out of floating-point
        # range: log Gamma_0 turns non-finite, or it and the total from the
        # last bid row disagree; stderr holds the error line and no warning
        out = tmp_path / "run.csv"
        argv = [
            "--units", "2", "--horizon", "100", "--values", "1,0.5",
            "--adversary", "iid", "--seed", "1", "--out", str(out),
        ] + extra
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.assert_one_line_error(argv, capsys)
        assert [str(w.message) for w in caught] == []
        assert f"eta={float(extra[-1]):g}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "eta, line",
        [
            ("1e30", "log Gamma_0 is 3.0437804218090037e+30 from the first bid row "
                     "but 3.043780421809003e+30 from the last"),
            ("1e150", "log Gamma_0 is 3.793780421809003e+150 from the first bid row "
                      "but 3.793780421809004e+150 from the last"),
            ("1e308", "node h(1,2) has log weight inf"),
        ],
    )
    def test_full_information_overflow_names_its_earliest_failing_round(
        self, eta, line, capsys
    ):
        # full information's learner runs a block of rounds at a time; the
        # error is still the one its earliest failing round raises (round 9,
        # 10 and 5 of the block), word for word
        argv = [
            "--units", "2", "--horizon", "100", "--values", "1,0.5",
            "--adversary", "iid", "--seed", "1", "--feedback", "full", "--eta", eta,
        ]
        err = self.assert_one_line_error(argv, capsys)
        assert err == f"error: eta={float(eta):g} is too large: {line}\n"

    def test_an_earlier_rounds_walk_fails_first(self, capsys, monkeypatch):
        # at eta = 1e30 the passes of round 9 fail; a walk that fails in
        # round 3 of the same block must raise first, as a per-round loop
        # would
        from uniprice import learner
        from uniprice.errors import WeightOverflow

        walk, walks = learner._walk, []

        def failing(*args):
            walks.append(args)
            if len(walks) == 3:
                raise WeightOverflow("a walk step's log probability overflows")
            return walk(*args)

        monkeypatch.setattr(learner, "_walk", failing)
        argv = [
            "--units", "2", "--horizon", "100", "--values", "1,0.5",
            "--adversary", "iid", "--seed", "1", "--feedback", "full", "--eta", "1e30",
        ]
        err = self.assert_one_line_error(argv, capsys)
        assert err == "error: eta=1e+30 is too large: a walk step's log probability overflows\n"
        assert len(walks) == 3

    @pytest.mark.parametrize("eta", ["1e20", "1e300"])
    def test_vanishing_observation_probability_exits_2_naming_eta(
        self, eta, tmp_path, capsys
    ):
        # at these etas the all-winner weights turn so peaked that a node's
        # observation probability rounds to 0 before any weight overflows
        out = tmp_path / "run.csv"
        argv = [
            "--units", "2", "--horizon", "300", "--values", "1,0.5",
            "--adversary", "iid", "--seed", "1", "--feedback", "allwinner",
            "--eta", eta, "--out", str(out),
        ]
        err = self.assert_one_line_error(argv, capsys)
        assert err == (
            f"error: eta={float(eta):g} is too large: "
            "node h(1,5) has zero observation probability\n"
        )
        assert not out.exists()

    def test_zero_marginal_exits_2_naming_eta(self, capsys, monkeypatch):
        # no eta tried reaches bandit's ZeroMarginal; a stand-in signal raises it
        from uniprice import harness
        from uniprice.errors import ZeroMarginal

        def vanished(*args):
            raise ZeroMarginal("played node h(1,0) has zero inclusion probability")

        monkeypatch.setattr(harness, "bandit_signal", vanished)
        err = self.assert_one_line_error(MINIMAL + ["--eta", "1e9"], capsys)
        assert err == (
            "error: eta=1e+09 is too large: played node h(1,0) has zero inclusion probability\n"
        )

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        from uniprice import cli

        def exhaust(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_experiment", exhaust)
        self.assert_one_line_error(MINIMAL, capsys)

    def test_auction_error_exits_2(self, capsys):
        # defaults need T > K: HorizonTooShort is an AuctionError, not a ConfigError
        i = MINIMAL.index("--horizon")
        argv = MINIMAL[: i + 1] + ["2"] + MINIMAL[i + 2 :]
        self.assert_one_line_error(argv, capsys)
