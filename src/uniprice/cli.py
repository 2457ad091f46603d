"""Command line front end.

Flags mirror RunConfig, plus ``--pricing``, which must be ``lab``: learning
runs clear with LAB, and FRB clearing is a library feature.  A line-oriented
``key=value`` config file can supply any flag but ``--config``, with explicit
flags taking precedence.  Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .adversaries import AdversaryKind, AdversarySpec
from .errors import AuctionError, ConfigError
from .harness import (
    PlotScale,
    RunConfig,
    TieMode,
    run_experiment,
    write_csv,
    write_svg,
)
from .learner import FeedbackMode

_FEEDBACK = {
    "full": FeedbackMode.FULL_INFORMATION,
    "bandit": FeedbackMode.BANDIT,
    "allwinner": FeedbackMode.ALL_WINNER,
}
_TIE = {"validate": TieMode.VALIDATE, "perturb": TieMode.PERTURB}
_SCALE = {"linear": PlotScale.LINEAR, "loglog": PlotScale.LOGLOG}

_KEYS = {
    "units",
    "horizon",
    "feedback",
    "pricing",
    "values",
    "adversary",
    "epsilon",
    "eta",
    "seed",
    "reps",
    "tie-mode",
    "out",
    "plot",
    "scale",
    "workers",
}


def _parse_values(text: str, n: Optional[int] = None) -> tuple[float, ...]:
    """Comma-separated numbers; exactly ``n`` of them when ``n`` is given."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse values {text!r}") from exc
    if n is not None and len(values) != n:
        raise ConfigError(f"expected {n} comma-separated value(s), got {text!r}")
    return values


def _number(cast, value, key: str):
    """``cast(value)`` for ``cast`` int or float, or a ConfigError that
    names the key (config-file values arrive as text)."""
    try:
        return cast(value)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from None


def _check_writable(path: str, key: str) -> None:
    """Fail before any simulation when ``path`` cannot be written: its
    directory must exist and be writable, and the path must not be a
    directory or a read-only file."""
    parent = os.path.dirname(os.path.abspath(path))
    if (
        os.path.isdir(path)
        or not os.path.isdir(parent)
        or not os.access(parent, os.W_OK)
        or (os.path.exists(path) and not os.access(path, os.W_OK))
    ):
        raise ConfigError(f"cannot write --{key} {path!r}")


def parse_adversary(text: str, k: int) -> AdversarySpec:
    """Parse ``name:params`` adversary descriptions.

    fixed:B1,...,BK       the same profile every round
    iid[:LO,HI]           coordinates drawn uniformly then sorted
    schedule:PATH         file with one comma-separated profile per round
    firstprice[:H]        lower-bound environment; H a fixed scalar opposing
    firstprice:uniform[:LO,HI]   ... or a uniform scalar source
    """
    name, _, params = text.partition(":")
    name = name.strip().lower()
    if name == "fixed":
        profile = _parse_values(params)
        return AdversarySpec(AdversaryKind.FIXED, k, fixed_profile=profile)
    if name in ("iid", "iiduniform"):
        bounds = _parse_values(params, 2) if params else (0.0, 1.0)
        return AdversarySpec(AdversaryKind.IID_UNIFORM, k, bounds=bounds)
    if name == "schedule":
        rows = []
        try:
            with open(params, "r", encoding="ascii") as fh:
                for line in fh:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        rows.append(_parse_values(line))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read schedule file {params!r}") from exc
        return AdversarySpec(AdversaryKind.SCHEDULE, k, schedule=tuple(rows))
    if name == "firstprice":
        if not params:
            return AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, k)
        head, _, rest = params.partition(":")
        if head == "uniform":
            bounds = _parse_values(rest, 2) if rest else (0.0, 1.0)
            return AdversarySpec(
                AdversaryKind.FIRST_PRICE_REDUCTION, k, h_bounds=bounds
            )
        (h_value,) = _parse_values(head, 1)
        return AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, k, h_value=h_value)
    raise ConfigError(f"unknown adversary kind {name!r}")


def read_config_file(path: str) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one ``error:`` line from main, as for config files
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="uniprice",
        description="Simulate online bidding in repeated K-unit uniform-price auctions.",
    )
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--units", type=int, help="number of items K")
    p.add_argument("--horizon", type=int, help="number of rounds T")
    p.add_argument("--feedback", choices=sorted(_FEEDBACK), help="feedback model")
    p.add_argument("--pricing", choices=["frb", "lab"], default=None)
    p.add_argument("--values", help="comma-separated marginal values v1,...,vK")
    p.add_argument("--adversary", help="adversary spec, e.g. fixed:0.83,0.31")
    p.add_argument("--epsilon", type=float, default=None, help="grid step override")
    p.add_argument("--eta", type=float, default=None, help="learning rate override")
    p.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
    p.add_argument("--reps", type=int, default=None, help="number of replications")
    p.add_argument("--tie-mode", choices=sorted(_TIE), default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--plot", help="SVG output path")
    p.add_argument("--scale", choices=sorted(_SCALE), default=None)
    return p


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve flags (and an optional config file) into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    file_vals = read_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            return file_vals[key]
        return default

    units = pick(args.units, "units")
    if units is None:
        raise ConfigError("missing --units")
    units = _number(int, units, "units")
    horizon = pick(args.horizon, "horizon")
    if horizon is None:
        raise ConfigError("missing --horizon")
    horizon = _number(int, horizon, "horizon")
    feedback = pick(args.feedback, "feedback")
    if feedback is None:
        raise ConfigError("missing --feedback")
    if feedback not in _FEEDBACK:
        raise ConfigError(f"unknown feedback {feedback!r}")
    values = pick(args.values, "values")
    if values is None:
        raise ConfigError("missing --values")
    adversary = pick(args.adversary, "adversary")
    if adversary is None:
        raise ConfigError("missing --adversary")

    if pick(args.pricing, "pricing", "lab") != "lab":
        raise ConfigError(
            "learning runs require LAB pricing; FRB is supported for "
            "single clearings only"
        )
    tie_mode = pick(args.tie_mode, "tie-mode", "validate")
    if tie_mode not in _TIE:
        raise ConfigError(f"unknown tie mode {tie_mode!r}")
    scale = pick(args.scale, "scale", "linear")
    if scale not in _SCALE:
        raise ConfigError(f"unknown scale {scale!r}")

    epsilon = pick(args.epsilon, "epsilon")
    eta = pick(args.eta, "eta")
    return RunConfig(
        k=units,
        horizon=horizon,
        feedback=_FEEDBACK[feedback],
        values=_parse_values(values),
        adversary=parse_adversary(adversary, units),
        seed=_number(int, pick(args.seed, "seed", 0), "seed"),
        replications=_number(int, pick(args.reps, "reps", 1), "reps"),
        epsilon=None if epsilon is None else _number(float, epsilon, "epsilon"),
        eta=None if eta is None else _number(float, eta, "eta"),
        tie_mode=_TIE[tie_mode],
        workers=_number(int, pick(args.workers, "workers", 1), "workers"),
        out=pick(args.out, "out"),
        plot=pick(args.plot, "plot"),
        scale=_SCALE[scale],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(argv)
        for key, path in (("out", config.out), ("plot", config.plot)):
            if path:
                _check_writable(path, key)
        traces = run_experiment(config)
    except AuctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: grid or horizon too large", file=sys.stderr)
        return 2
    finals = np.array([tr.final_regret for tr in traces])
    print(
        f"K={config.k} T={config.horizon} feedback={config.feedback.value} "
        f"reps={config.replications} eps={traces[0].epsilon:.6g} "
        f"eta={traces[0].eta:.6g}"
    )
    print(
        f"final regret: mean={finals.mean():.6g} min={finals.min():.6g} "
        f"max={finals.max():.6g}"
    )
    try:
        if config.out:
            write_csv(traces, config.out)
            print(f"wrote {config.out}")
        if config.plot:
            write_svg(traces, config.plot, config.scale)
            print(f"wrote {config.plot}")
    except OSError as exc:
        print(f"error: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
