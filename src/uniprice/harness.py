"""Experiment orchestration: seeded replications of the learning loop,
regret traces, CSV and SVG emission.

A run is fully determined by (config, seed): every replication derives its
own counter-based random streams from the pair, so results are identical
regardless of how replications are scheduled across workers.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adversaries import AdversarySpec, check_adversary, next_bids
from .auction_core import AuctionOutcome, BidProfile, Valuation, utility_sum
# unused here, but perfbench/tracing.py's HARNESS_SPANS patches them by name
from .auction_core import apply_tie_offset, clear_auction  # noqa: F401
from .errors import ConfigError, WeightOverflow, ZeroMarginal, ZeroObservationProbability
from .feedback import FeedbackMode, make_feedback
from .learner import (
    WeightState,
    allwinner_signal,
    bandit_signal,
    default_parameters,
    expectation,
    init_state,
    marginals,
    sample_path,
    sample_paths,
    update_weights,
)
from .oracle import best_fixed_total
from .pseudo_space import (
    Events,
    build_graph,
    event_utilities,
    firing_set,
    realized_event,
    realized_events,
)


class TieMode(enum.Enum):
    VALIDATE = "validate"
    PERTURB = "perturb"


class PlotScale(enum.Enum):
    LINEAR = "linear"
    LOGLOG = "loglog"


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible experiment needs."""

    k: int
    horizon: int
    feedback: FeedbackMode
    values: tuple[float, ...]
    adversary: AdversarySpec
    seed: int
    replications: int = 1
    epsilon: Optional[float] = None
    eta: Optional[float] = None
    tie_mode: TieMode = TieMode.VALIDATE
    workers: int = 1
    out: Optional[str] = None
    plot: Optional[str] = None
    scale: PlotScale = PlotScale.LINEAR


@dataclass
class RegretTrace:
    """Per-round record of one replication."""

    run: int
    realized_utility: np.ndarray
    expected_utility: np.ndarray
    cum_expected_regret: np.ndarray
    discretization_bound: np.ndarray
    price: np.ndarray
    allocation: np.ndarray
    final_regret: float
    wall_clock: float
    epsilon: float
    eta: float


def validate_config(config: RunConfig) -> None:
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if config.k < 1:
        raise ConfigError("need at least one item")
    if config.horizon < 1:
        raise ConfigError("horizon must be at least 1")
    # from 2**53 on, float64 skips integers: the K*t*eps column is inexact
    if config.horizon >= 2**53:
        raise ConfigError(f"horizon {config.horizon} must be below 2**53")
    if config.replications < 1:
        raise ConfigError("need at least one replication")
    if config.workers < 1:
        raise ConfigError("need at least one worker")
    if len(config.values) != config.k:
        raise ConfigError(f"expected {config.k} values, got {len(config.values)}")
    if any(not (0.0 <= v <= 1.0) for v in config.values):
        raise ConfigError("values must lie in [0, 1]")
    if config.epsilon is not None:
        # nan, 0 and subnormal steps (1/eps overflows) all fail the isfinite test
        inv = 1.0 / config.epsilon if 0.0 < config.epsilon <= 1.0 else math.inf
        if not math.isfinite(inv) or abs(round(inv) * config.epsilon - 1.0) > 1e-9:
            raise ConfigError("epsilon must be the inverse of a positive integer")
        if inv >= 2**53:  # every huge 1/eps passes the test above
            raise ConfigError(f"epsilon {config.epsilon!r} must exceed 2**-53")
    if config.eta is not None and not (0.0 < config.eta < math.inf):
        raise ConfigError("eta must be positive and finite")
    check_adversary(
        config.adversary, config.k, config.horizon, resolve_parameters(config)[0],
        require_off_grid=config.tie_mode is TieMode.VALIDATE,
    )


def resolve_parameters(config: RunConfig) -> tuple[float, float]:
    """Fill (epsilon, eta) from the feedback model's defaults, honoring
    explicit overrides."""
    epsilon, eta = config.epsilon, config.eta
    if epsilon is None or eta is None:
        eps_def, eta_def = default_parameters(config.k, config.horizon, config.feedback)
        epsilon = eps_def if epsilon is None else epsilon
        eta = eta_def if eta is None else eta
    return epsilon, eta


#: Bytes of one (B, n_nodes) float array: the rows per block, which the
#: adversary-only half and full information's learner each run at once.
#: The output does not depend on it.
_BLOCK_BYTES = 256 * 1024


def _running(start, events, values):
    """The running node sums of a block of B rounds, as a (B + 1, n)
    table: row 0 is ``start``, and row i + 1 adds round i's ``values`` at
    its event ids.  One scatter and one cumsum down the rounds make the
    float additions of a per-round ``totals[ids] += values`` loop.  The
    table is stored node-major, each node's rounds contiguous, so the
    comparator scan's row views are near-contiguous blocks."""
    b = len(events.starts) - 1
    table = np.zeros((len(start), b + 1)).T
    table[0] = start
    table[np.repeat(np.arange(1, b + 1), np.diff(events.starts)), events.ids] = values
    return np.cumsum(table, axis=0, out=table)


def _full_information(batch, log_w, events, w_node, eta, rng):
    """Full information's learner half for a block of B rounds: their
    sampled levels, a (B, K) int array, their (B, n) marginals and the
    log weights after their updates.

    Round i samples from row i of ``_running(log_w, events, eta *
    w_node)``, the log weights the per-round ``update_weights`` calls
    would leave, and row B is the next block's start.  The rounds run as
    one ``batch`` of learner states (its first rows for a short block),
    with one (B, K) draw of ``rng``: one pass and one ``sample_paths``
    block walk, which replays through ``_walk`` only the rounds whose
    comparisons an ulp of ``exp`` could turn.  When the passes fail, the
    rounds are replayed in order as batches of one, passes and walk
    each, so the error raised is the earliest failing round's own, walk
    errors included, as a per-round loop would raise."""
    g = batch.graph
    b = len(events.starts) - 1
    if b < len(batch.log_w):
        batch = WeightState(g, batch.w2[:b], batch.acc[:b])
    u = rng.random((b, g.k))
    table = _running(log_w, events, eta * w_node)
    batch.log_w[...] = table[:b]
    batch.mark_all_dirty()
    try:
        margs = marginals(batch)
    except WeightOverflow:
        for r in range(b):
            sample_paths(WeightState(g, batch.w2[r : r + 1], batch.acc[r : r + 1]), u[r : r + 1])
        raise
    return sample_paths(batch, u), margs, table[b]


def _played_events(levels, block, node_block, offset, graph) -> Events:
    """Full information's block outcome: each round's realized event for
    the played ``levels`` against ``node_block`` (``realized_events``),
    priced in market terms.  In perturb mode (``offset`` not None) the
    learner's bids sit offset higher, capped at 1, and an adversary's
    price is its raw bid in ``block``, never (beta - offset) + offset: the
    per-round loop's market price, bit for bit.  ``event_utilities`` of
    the result gives each round's market utility, bitwise its
    ``utility_sum``."""
    played = realized_events(levels, node_block, graph)
    if offset is None:
        return played
    learner_sets = (played.alloc > 0) & (graph.row[played.ids] % 2 == 0)
    rivals = block[np.arange(len(block)), graph.k - 1 - played.alloc]
    market = np.where(learner_sets, np.minimum(played.price + offset, 1.0), rivals)
    return Events(played.ids, played.alloc, market)


@np.errstate(over="ignore", invalid="ignore")
def _run_replication(config: RunConfig, rep: int) -> RegretTrace:
    """One replication in two halves.  Against an oblivious adversary the
    firing events, their sub-utilities, the node totals and the hindsight
    comparator depend only on the adversary's (T, K) block, so they are
    computed a block of rounds at a time, before those rounds run; under
    full information so is the whole learner half, as block steps:
    ``_full_information``'s passes, marginals and walks, then
    ``_played_events`` and ``event_utilities`` for each round's outcome
    and market utility, with no per-round Python.  Bandit's and
    all-winner's weights depend on the play, so their learner half is a
    loop that runs each round's in-order work: the levels and marginals,
    the outcome and the node from ``realized_event`` on the played
    levels, with no clearing, the utility from ``utility_sum``, the
    signal and the weight update.  It records each round's market
    utility, price and allocation, and keeps a reference to each round's
    marginals (each pass sets a new array).  After the learner half one
    block step fills the columns: the expected utilities from one
    ``expectation`` call on the rounds' marginals, the rest by slices.
    The cumulative regret is the comparator minus one cumsum of the
    expected utilities over the run.  numpy's overflow and invalid-value
    warnings are off: ``WeightOverflow`` reports those."""
    t_start = time.perf_counter()
    root = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    seed_learn, seed_adv, seed_tie = root.spawn(3)
    rng_learn = np.random.Generator(np.random.Philox(seed_learn))
    rng_adv = np.random.Generator(np.random.Philox(seed_adv))
    rng_tie = np.random.Generator(np.random.Philox(seed_tie))

    epsilon, eta = resolve_parameters(config)
    m = round(1.0 / epsilon)
    graph = build_graph(config.k, m)
    state = init_state(graph)
    values = Valuation(config.values)
    horizon = config.horizon
    perturb = config.tie_mode is TieMode.PERTURB
    full = config.feedback is FeedbackMode.FULL_INFORMATION
    rows = max(1, _BLOCK_BYTES // (8 * graph.n_nodes))
    if full:
        batch = init_state(graph, min(rows, horizon))
    offset = float(rng_tie.uniform(0.0, epsilon / 100.0)) if perturb else 0.0

    level_prices = graph.levels.tolist()
    node_totals = np.zeros(graph.n_nodes)
    realized = np.empty(horizon)
    expected = np.empty(horizon)
    cum_regret = np.empty(horizon)
    prices = np.empty(horizon)
    allocations = np.empty(horizon, dtype=int)

    adversary_bids = next_bids(
        config.adversary, horizon, rng_adv, epsilon, require_off_grid=not perturb
    )
    for t0 in range(0, horizon, rows):
        # adversary-only half: events, sub-utilities, node totals and the
        # comparator of every round in the block, in market terms
        block = adversary_bids[t0 : t0 + rows]
        node_block = block - offset if perturb else block
        events = firing_set(node_block, graph)
        w_node = event_utilities(events, values)
        w_market = event_utilities(events, values, offset) if perturb else w_node
        totals = _running(node_totals, events, w_market)
        node_totals = totals[-1].copy()
        t1 = t0 + len(block)
        cum_regret[t0:t1] = best_fixed_total(totals[1:], graph)
        del totals  # the largest table, freed before the next block allocates its own

        # learner half: full information's as block steps, bandit's and
        # all-winner's in round order, as their weights depend on the play
        if full:
            levels, margs, state.log_w[:] = _full_information(
                batch, state.log_w, events, w_node, eta, rng_learn
            )
            played = _played_events(levels, block, node_block, offset if perturb else None, graph)
            utilities = event_utilities(played, values)
            market_prices, xs = played.price, played.alloc
        else:
            margs, starts = [], events.starts.tolist()
            market_rows = block.tolist()
            node_rows = node_block.tolist() if perturb else market_rows
            utilities, market_prices, xs = [], [], []
            for i in range(len(block)):
                levels = sample_path(state, rng_learn)
                margs.append(marginals(state))
                bids = [level_prices[j] for j in levels]
                node, x, price = realized_event(levels, bids, node_rows[i], graph)
                utility = utility_sum(values.values, x, price)
                market_price, market_utility = price, utility
                if perturb:
                    # the learner's bids sit offset higher, capped at 1; an adversary's
                    # price is its raw bid, never (beta - offset) + offset
                    learner_sets = x and graph.row[node] % 2 == 0
                    market_price = (
                        min(price + offset, 1.0) if learner_sets else market_rows[i][-1 - x]
                    )
                    market_utility = utility_sum(values.values, x, market_price)
                beta = BidProfile(tuple(node_rows[i]))
                fb = make_feedback(config.feedback, AuctionOutcome(price, x, utility), beta)
                if config.feedback is FeedbackMode.BANDIT:
                    signal = bandit_signal(node, utility, state)
                else:
                    a, b = starts[i], starts[i + 1]
                    signal = allwinner_signal(fb, events[a:b], w_node[a:b], state)
                update_weights(state, signal, eta)
                utilities.append(market_utility)
                market_prices.append(market_price)
                xs.append(x)

        # the block's accounting: exact expected utilities in market terms,
        # from each round's marginals, and the columns the learner half made
        expected[t0:t1] = expectation(margs if full else np.stack(margs), events, w_market)
        realized[t0:t1] = utilities
        prices[t0:t1] = market_prices
        allocations[t0:t1] = xs

    cum_regret -= np.cumsum(expected)  # comparator minus the running expected utility
    return RegretTrace(
        run=rep,
        realized_utility=realized,
        expected_utility=expected,
        cum_expected_regret=cum_regret,
        discretization_bound=config.k * np.arange(1, horizon + 1) * epsilon,
        price=prices,
        allocation=allocations,
        final_regret=float(cum_regret[-1]),
        wall_clock=time.perf_counter() - t_start,
        epsilon=epsilon,
        eta=eta,
    )


def run_experiment(config: RunConfig) -> list[RegretTrace]:
    """Run every replication and return traces ordered by replication index.

    Replications are independent given (seed, index), so worker count and
    scheduling cannot change any output byte.  The pool holds at most one
    process per replication: it starts all its workers up front.  Only a
    run with more than one worker and replication imports the pool, so
    the import and a one-process run do not load its 32 modules
    (``multiprocessing``, ``socket``, ``logging`` and more).
    """
    validate_config(config)
    reps = range(config.replications)
    try:
        if config.workers > 1 and config.replications > 1:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(config.workers, config.replications)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                traces = list(pool.map(_run_replication, [config] * config.replications, reps))
        else:
            traces = [_run_replication(config, rep) for rep in reps]
    except (WeightOverflow, ZeroMarginal, ZeroObservationProbability) as exc:
        # a huge eta ends a run in any of these, none of which names it
        eta = resolve_parameters(config)[1]
        raise type(exc)(f"eta={eta:g} is too large: {exc}") from None
    traces.sort(key=lambda tr: tr.run)
    return traces


# --- output ---------------------------------------------------------------

CSV_HEADER = (
    "run,t,realized_utility,expected_utility,cum_expected_regret,"
    "discretization_bound,price,allocation"
)


_CSV_CHUNK = 1024


def csv_bytes(traces: Sequence[RegretTrace]) -> bytes:
    if not traces:
        raise ValueError("no traces to write")
    lines = [CSV_HEADER]
    for tr in traces:
        columns = (
            tr.realized_utility, tr.expected_utility, tr.cum_expected_regret,
            tr.discretization_bound, tr.price, tr.allocation,
        )
        row = f"{tr.run},%d,%.12g,%.12g,%.12g,%.12g,%.12g,%d"
        # converted and joined a chunk of rows at a time, which bounds the
        # float and row objects alive
        for a in range(0, len(tr.realized_utility), _CSV_CHUNK):
            chunk = (col[a : a + _CSV_CHUNK].tolist() for col in columns)
            rows = zip(range(a + 1, a + _CSV_CHUNK + 1), *chunk)
            lines.append("\n".join(map(row.__mod__, rows)))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(traces: Sequence[RegretTrace], path: str) -> None:
    """One row per (replication, round); identical traces give identical bytes."""
    data = csv_bytes(traces)
    with open(path, "wb") as fh:
        fh.write(data)


def fit_loglog_slope(ts: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of log y against log t over the positive points."""
    mask = (ts > 0) & (ys > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive points for a slope fit")
    return float(np.polyfit(np.log(ts[mask]), np.log(ys[mask]), 1)[0])


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


def _m4(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Indices, in round order, of each pixel column's first, last, lowest
    and highest point (M4: Jugel et al., VLDB 2014).  A line through them
    sets the same pixels as the full polyline.  ``px`` must not decrease."""
    cols = np.floor(px)
    by_height = np.lexsort((py, cols))  # stable: column-major, each column by height
    starts = np.flatnonzero(cols[1:] != cols[:-1]) + 1
    firsts = np.concatenate(([0], starts))
    lasts = np.concatenate((starts - 1, [px.size - 1]))
    keep = np.sort(np.concatenate((firsts, lasts, by_height[firsts], by_height[lasts])))
    return keep[np.concatenate(([True], keep[1:] != keep[:-1]))]


def svg_bytes(traces: Sequence[RegretTrace], scale: PlotScale = PlotScale.LINEAR) -> bytes:
    """Static self-contained SVG: mean cumulative regret with a min-max band
    across replications and the K t eps allowance; log-log mode annotates
    the fitted slope.  Each line keeps at most 4 points a pixel column."""
    if not traces:
        raise ValueError("no traces to plot")
    horizon = len(traces[0].cum_expected_regret)
    stack = np.vstack([tr.cum_expected_regret for tr in traces])
    mean = stack.mean(axis=0)
    lo_band = stack.min(axis=0)
    hi_band = stack.max(axis=0)
    ts = np.arange(1, horizon + 1, dtype=float)
    allowance = traces[0].discretization_bound

    slope_text = ""
    if scale is PlotScale.LOGLOG:
        slope = fit_loglog_slope(ts, mean)
        slope_text = f"fitted slope: {slope:.3f}"
        mask = mean > 0
        ts_plot = np.log10(ts[mask])
        mean_p = np.log10(mean[mask])
        # the y range comes from positive values; a band edge at or below 0
        # is drawn on the bottom axis
        lo_pos = lo_band[mask]
        least = min(mean[mask].min(), lo_pos[lo_pos > 0].min(initial=np.inf))
        lo_p = np.log10(np.maximum(lo_pos, least))
        hi_p = np.log10(hi_band[mask])
        ends = allowance[mask][[0, -1]]
        ends = np.log10(ends) if ends[0] > 0 else None
        x_label, y_label = "log10 t", "log10 cumulative regret"
    else:
        ts_plot, mean_p, lo_p, hi_p = ts, mean, lo_band, hi_band
        ends = allowance[[0, -1]] if allowance[-1] > 0 else None
        x_label, y_label = "t", "cumulative regret"
    if ts_plot.size == 0:
        raise ValueError("nothing to plot on a log scale")

    width, height = 720.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    x0, x1 = float(ts_plot[0]), float(ts_plot[-1])
    y0 = float(min(lo_p.min(), 0.0 if scale is PlotScale.LINEAR else lo_p.min()))
    y1 = float(hi_p.max())
    if y1 <= y0:
        y1 = y0 + 1.0
    if x1 <= x0:
        x1 = x0 + 1.0

    # applied to floats and to whole arrays, with the same float operations
    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    line_x = sx(ts_plot)

    def poly(ys: np.ndarray, reverse: bool = False) -> str:
        line_y = sy(ys)
        keep = _m4(line_x, line_y)
        if reverse:
            keep = keep[::-1]
        points = zip(line_x[keep].tolist(), line_y[keep].tolist())
        return " ".join(map("%.2f,%.2f".__mod__, points))

    band = poly(hi_p) + " " + poly(lo_p, reverse=True)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<polygon points="{band}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>',
        f'<polyline points="{poly(mean_p)}" fill="none" '
        'stroke="#08519c" stroke-width="1.8"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'
    if ends is not None:
        # a straight segment in both scales, clipped to the band's y range
        (xa, xb), (ya, yb) = (float(ts_plot[0]), float(ts_plot[-1])), ends.tolist()
        if ya <= y1 and yb >= y0:
            if ya < y0:
                xa, ya = xa + (y0 - ya) / (yb - ya) * (xb - xa), y0
            if yb > y1:
                xb, yb = xa + (y1 - ya) / (yb - ya) * (xb - xa), y1
            parts.append(
                f'<line x1="{sx(xa):.2f}" y1="{sy(ya):.2f}" x2="{sx(xb):.2f}" '
                f'y2="{sy(yb):.2f}" stroke="#d95f0e" stroke-width="1.2" '
                'stroke-dasharray="6 4"/>'
            )
        parts.append(
            f'<text x="{ml + 8:.1f}" y="{mt + 16:.1f}" fill="#d95f0e" {font}>'
            f"K&#183;t&#183;&#949; allowance: {allowance[-1]:.6g} at T = {horizon}</text>"
        )
    axis = 'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{ml:.1f}" y1="{height - mb:.1f}" x2="{width - mr:.1f}" '
        f'y2="{height - mb:.1f}" {axis}/>'
    )
    parts.append(
        f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" y2="{height - mb:.1f}" {axis}/>'
    )
    for tx in _nice_ticks(x0, x1):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.1f}" y1="{height - mb:.1f}" x2="{px:.1f}" '
            f'y2="{height - mb + 5:.1f}" {axis}/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - mb + 18:.1f}" text-anchor="middle" '
            f"{font}>{tx:.6g}</text>"
        )
    for ty in _nice_ticks(y0, y1):
        py = sy(ty)
        parts.append(
            f'<line x1="{ml - 5:.1f}" y1="{py:.1f}" x2="{ml:.1f}" y2="{py:.1f}" {axis}/>'
        )
        parts.append(
            f'<text x="{ml - 8:.1f}" y="{py + 4:.1f}" text-anchor="end" '
            f"{font}>{ty:.6g}</text>"
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10:.1f}" '
        f'text-anchor="middle" {font}>{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.1f})" {font}>{y_label}</text>'
    )
    if slope_text:
        parts.append(
            f'<text x="{width - mr - 8:.1f}" y="{mt + 16:.1f}" text-anchor="end" '
            f"{font}>{slope_text}</text>"
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def write_svg(
    traces: Sequence[RegretTrace], path: str, scale: PlotScale = PlotScale.LINEAR
) -> None:
    data = svg_bytes(traces, scale)
    with open(path, "wb") as fh:
        fh.write(data)
