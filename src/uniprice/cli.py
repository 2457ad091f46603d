"""Command line front end.

Flags mirror RunConfig, plus ``--pricing``, which must be ``lab``: learning
runs clear with LAB, and FRB clearing is a library feature.  A line-oriented
``key=value`` config file (``--config``) can set any other flag; unknown keys
are rejected.  There is one parse path: the file's values become the
parser's defaults and the argv is parsed again, so explicit flags win and a
file value is converted by its flag's own ``type``.  A bad value gives the
same one-line error, naming the flag, from either source.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Collection, Optional, Sequence

import numpy as np

from .adversaries import AdversaryKind, AdversarySpec
from .auction_core import PricingRule
from .errors import AuctionError, ConfigError
from .feedback import FeedbackMode
from .harness import PlotScale, RunConfig, TieMode, run_experiment, write_csv, write_svg

_REQUIRED = ("units", "horizon", "feedback", "values", "adversary")


def _parse_values(text: str, n: Optional[int] = None) -> tuple[float, ...]:
    """Comma-separated numbers; exactly ``n`` of them when ``n`` is given."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse values {text!r}") from exc
    if n is not None and len(values) != n:
        raise ConfigError(f"expected {n} comma-separated value(s), got {text!r}")
    return values


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
    if text.endswith(":"):
        raise ConfigError(f"cannot parse adversary {text!r}: nothing after the last ':'")
    if name == "fixed":
        profile = _parse_values(params)
        return AdversarySpec(AdversaryKind.FIXED, k, fixed_profile=profile)
    if name == "iid":
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
        head, sep, rest = params.partition(":")
        if head == "uniform":
            bounds = _parse_values(rest, 2) if rest else (0.0, 1.0)
            return AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, k, bounds=bounds)
        if sep:
            raise ConfigError(f"cannot parse adversary {text!r}: firstprice:H takes one number")
        (h_value,) = _parse_values(head, 1)
        return AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, k, h_value=h_value)
    raise ConfigError(f"unknown adversary kind {name!r}")


def read_config_file(path: str, keys: Collection[str]) -> dict[str, str]:
    """Line-oriented key=value file; '#' starts a comment.  A key may use
    ``_`` for ``-`` and any case, and must be one of ``keys``."""
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one ``error:`` line from main
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="uniprice",
        description="Simulate online bidding in repeated K-unit uniform-price auctions.",
    )

    def enum_flag(flag: str, cls, **kwargs) -> None:
        """A flag whose text maps to the member of ``cls`` with that value;
        ``--help`` and a bad value's error list the allowed values."""
        allowed = [m.value for m in cls]

        def convert(text: str):
            try:
                return cls(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {text!r} (choose from {', '.join(allowed)})"
                ) from None

        p.add_argument(flag, type=convert, metavar="{" + ",".join(allowed) + "}", **kwargs)

    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--units", type=int, help="number of items K")
    p.add_argument("--horizon", type=int, help="number of rounds T")
    enum_flag("--feedback", FeedbackMode, help="feedback model")
    enum_flag("--pricing", PricingRule, default="lab")
    p.add_argument("--values", help="comma-separated marginal values v1,...,vK")
    p.add_argument("--adversary", help="adversary spec, e.g. fixed:0.83,0.31")
    p.add_argument("--epsilon", type=float, help="grid step override")
    p.add_argument("--eta", type=float, help="learning rate override")
    p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
    p.add_argument("--reps", type=int, default=1, help="number of replications")
    enum_flag("--tie-mode", TieMode, default="validate")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--plot", help="SVG output path")
    enum_flag("--scale", PlotScale, default="linear")
    return p


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve flags into a RunConfig; a ``--config`` file's values become
    the parser's defaults, so flags win and both share one conversion."""
    return _parse(argv)[0]


def _parse(argv: Optional[Sequence[str]]) -> tuple[RunConfig, Optional[str]]:
    """``parse_config``'s RunConfig and the ``--config`` path, if any."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        dests = {  # file key -> argparse dest, for every long flag a file may set
            opt[2:]: action.dest
            for opt, action in parser._option_string_actions.items()
            if opt.startswith("--") and opt not in ("--config", "--help")
        }
        file_vals = read_config_file(args.config, dests)
        parser.set_defaults(**{dests[key]: value for key, value in file_vals.items()})
        args = parser.parse_args(argv)
    for key in _REQUIRED:
        if getattr(args, key) is None:
            raise ConfigError(f"missing --{key}")
    if args.pricing is not PricingRule.LAB:
        raise ConfigError(
            "learning runs require LAB pricing; FRB is supported for "
            "single clearings only"
        )
    return RunConfig(
        k=args.units, horizon=args.horizon, feedback=args.feedback,
        values=_parse_values(args.values),
        adversary=parse_adversary(args.adversary, args.units),
        seed=args.seed, replications=args.reps, epsilon=args.epsilon, eta=args.eta,
        tie_mode=args.tie_mode, workers=args.workers,
        out=args.out, plot=args.plot, scale=args.scale,
    ), args.config


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config, config_path = _parse(argv)
        for key, path in (("out", config.out), ("plot", config.plot)):
            if path:
                _check_writable(path, key)
        files = (("config", config_path), ("out", config.out), ("plot", config.plot))
        named: dict[str, str] = {}  # real path -> the first flag naming it
        for key, path in files:
            if path:
                first = named.setdefault(os.path.realpath(path), key)
                if first != key:
                    raise ConfigError(f"--{first} and --{key} name the same file {path!r}")
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
    except ValueError as exc:  # a log-log plot of a regret that is never positive
        print(f"error: cannot plot --scale {config.scale.value}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
