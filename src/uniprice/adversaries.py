"""Adversary bid generators.

An adversary is drawn once per replication: ``next_bids`` returns all T
profiles as one (T, K) array before round 1, and the harness reads row
t - 1 in round t.  ``check_adversary`` is the one statement of the
adversary contract, checked once before any replication: the profiles are
non-increasing, lie in [0, 1] and, unless the learner's bids are perturbed
instead, lie strictly inside (0, 1) and off the learner's grid, so
clearings are tie-free.  The generators rely on it and check nothing per
round.  The first-price reduction environment shaves its top bids off the
grid (see below).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .auction_core import BidProfile, PricingRule, Valuation, clear_auction, on_grid
from .errors import (
    ConfigError,
    GridCollision,
    NotMonotone,
    OutOfRange,
    TieDetected,
    WrongLength,
)

_MAX_REDRAWS = 64
_BID_OF_ONE = (
    "perturb mode caps the learner's top bid at 1, so an adversary bid of 1 "
    "would tie it; use bids below 1"
)


class AdversaryKind(enum.Enum):
    FIXED = "fixed"
    IID_UNIFORM = "iid"
    SCHEDULE = "schedule"
    FIRST_PRICE_REDUCTION = "firstprice"


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative description of an adversary.

    ``fixed_profile``: the profile replayed every round (FIXED).
    ``bounds``: (lo, hi) support of each coordinate before sorting (IID),
    or of the first-price reduction's uniform scalar opposing bid.
    ``schedule``: explicit per-round profiles (SCHEDULE).
    ``h_value``: the reduction's fixed scalar opposing bid; when None the
    scalar is drawn uniformly from ``bounds``.
    """

    kind: AdversaryKind
    k: int
    fixed_profile: Optional[tuple[float, ...]] = None
    bounds: tuple[float, float] = (0.0, 1.0)
    schedule: Optional[tuple[tuple[float, ...], ...]] = None
    h_value: Optional[float] = None


def reduction_top_nudge(epsilon: float) -> float:
    """Off-grid shave applied to the reduction's all-ones bids so they never
    tie the learner's grid: an irrational fraction of the grid step."""
    return epsilon / math.sqrt(2.0)


def check_adversary(
    spec: AdversarySpec, k: int, horizon: int, epsilon: float, *, require_off_grid=True
) -> None:
    """The adversary contract for K = ``k`` items, T = ``horizon`` rounds and
    the ``epsilon`` grid; raises on the first rule broken, naming the row.

    Bounds satisfy 0 <= lo <= hi <= 1.  The fixed profile and the first T
    schedule rows hold K non-increasing bids in [0, 1], with
    ``require_off_grid`` all strictly inside (0, 1) and off the grid, and
    without it (the learner's bids shifted up, capped at 1) none equal to 1.
    The first-price scalar lies off the grid inside (0, top) and a uniform
    one's lower bound is at most top, top = 1 - ``reduction_top_nudge``.
    An interval whose draws are redrawn off the grid is not a single value
    on the grid or outside (0, 1).
    """
    if spec.k != k:
        raise ConfigError("adversary spec is for a different number of items")
    lo, hi = spec.bounds
    if not (0.0 <= lo <= hi <= 1.0):
        raise ConfigError(f"adversary bounds ({lo}, {hi}) must satisfy 0 <= lo <= hi <= 1")
    if spec.kind is AdversaryKind.FIRST_PRICE_REDUCTION:
        top = 1.0 - reduction_top_nudge(epsilon)
        h = spec.h_value
        if h is not None and (on_grid(h, epsilon) or not (0.0 < h < top)):
            raise GridCollision(f"reduction scalar {h} must be off-grid inside (0, {top})")
        if h is None and lo > top:
            raise ConfigError(f"first-price lower bound {lo} lies above the top bids {top}")
    # a draw redrawn off the grid (validate mode, and always the first-price
    # scalar) never ends when its interval is one point on the grid
    redrawn = spec.kind is AdversaryKind.IID_UNIFORM and require_off_grid or (
        spec.kind is AdversaryKind.FIRST_PRICE_REDUCTION and spec.h_value is None
    )
    if redrawn and lo == hi and (lo <= 0.0 or lo >= 1.0 or on_grid(lo, epsilon)):
        raise GridCollision(
            f"adversary interval [{lo}, {hi}] is the single value {lo}, which lies "
            f"outside (0, 1) or on the {epsilon}-grid: every draw would tie"
        )
    if spec.kind is AdversaryKind.IID_UNIFORM and lo == 1.0 and not require_off_grid:
        raise ConfigError(_BID_OF_ONE)
    if spec.kind is AdversaryKind.FIXED:
        rows, where = (spec.fixed_profile,), "fixed profile"
    elif spec.kind is AdversaryKind.SCHEDULE:
        if len(spec.schedule) < horizon:
            raise ConfigError(
                f"schedule holds {len(spec.schedule)} rounds, fewer than the horizon {horizon}"
            )
        rows, where = spec.schedule[:horizon], "schedule row {}"
    else:
        return
    n = next((i for i, row in enumerate(rows) if len(row) != k), len(rows))
    a = np.array(rows[:n], dtype=float).reshape(n, k)
    rules = [  # (bad entries, error, message), in the order a row is checked
        (~((a >= 0.0) & (a <= 1.0)), OutOfRange, "bid {b} outside [0, 1]"),
        (a[:, :-1] < a[:, 1:], NotMonotone, "bids must be non-increasing, got {row}"),
    ]
    if require_off_grid:
        rules.append(((a <= 0.0) | (a >= 1.0) | on_grid(a, epsilon), TieDetected,
                      "adversary bid {b} violates the off-grid contract "
                      f"(must lie in (0,1) off the {epsilon}-grid)"))
    else:
        rules.append((a == 1.0, ConfigError, _BID_OF_ONE))
    # (first bad row, rule index) per broken rule; the least is the error
    firsts = [(bad.any(axis=1).argmax(), j) for j, (bad, *_) in enumerate(rules) if bad.any()]
    if firsts:
        i, j = min(firsts)
        bad, error, text = rules[j]
        row = tuple(a[i].tolist())
        raise error(f"{where.format(i + 1)}: " + text.format(b=row[bad[i].argmax()], row=row))
    if n < len(rows):
        raise WrongLength(f"{where.format(n + 1)}: expected {k} bids, got {len(rows[n])}")


def _uniform(
    rng: np.random.Generator, lo: float, hi: float, shape, epsilon: float, redraw: bool
) -> np.ndarray:
    """Draws lo + (hi - lo) u.  With ``redraw``, values on the grid or
    outside (0, 1), a measure-zero event unless the interval ends on one,
    are drawn again from the same stream."""
    u = lo + (hi - lo) * rng.random(shape)
    if not redraw:
        return u
    for _ in range(_MAX_REDRAWS):
        bad = (u <= 0.0) | (u >= 1.0) | on_grid(u, epsilon)
        if not bad.any():
            return u
        u[bad] = lo + (hi - lo) * rng.random(np.count_nonzero(bad))
    raise GridCollision(
        f"could not draw an off-grid value in ({lo}, {hi}) after {_MAX_REDRAWS} tries"
    )


def next_bids(
    spec: AdversarySpec, horizon: int, rng: np.random.Generator, epsilon: float, *,
    require_off_grid=True,
) -> np.ndarray:
    """All ``horizon`` profiles of one replication as a (T, K) array; round
    t plays row t - 1.  The spec must pass ``check_adversary`` with the
    same arguments: nothing here checks it again.  ``require_off_grid=False``
    skips the i.i.d. off-grid redraw, for runs that perturb the learner's
    bids instead.
    """
    if spec.kind is AdversaryKind.FIXED:
        return np.broadcast_to(np.array(spec.fixed_profile, dtype=float), (horizon, spec.k))
    if spec.kind is AdversaryKind.SCHEDULE:
        return np.array(spec.schedule[:horizon], dtype=float)
    lo, hi = spec.bounds
    if spec.kind is AdversaryKind.IID_UNIFORM:
        block = _uniform(rng, lo, hi, (horizon, spec.k), epsilon, require_off_grid)
        block.sort(axis=1)
        return block[:, ::-1]
    # First-price reduction: K-1 bids just under 1 and a scalar opposing bid.
    # The literal construction uses bids of exactly 1, which a learner bid of
    # 1 would tie; shaving them by an off-grid nudge keeps the no-tie
    # contract and preserves the reduction for every learner bid <= 1 - eps.
    top = 1.0 - reduction_top_nudge(epsilon)
    block = np.full((horizon, spec.k), top)
    h = spec.h_value
    block[:, -1] = _uniform(rng, lo, min(hi, top), horizon, epsilon, True) if h is None else h
    return block


def reduction_consistency_check(
    b1: float, h: float, values: Valuation
) -> tuple[float, tuple[int, Optional[float]]]:
    """Clear the literal lower-bound environment and return what a
    first-price auction would produce.

    With adversary (1, ..., 1, h), valuation (1, 0, ..., 0) and learner
    profile (b1, 0, ..., 0), the K-unit clearing reproduces the first-price
    auction with opposing bid h: utility 1[b1 > h] * (1 - b1) and bandit
    feedback (1[b1 > h], b1 if won).  Exact for every b1 in (0, 1]; the
    b1 = 1 boundary ties the all-ones bids but the outcome is forced, with
    exactly K items for K price-level bids.
    """
    k = values.k
    if values.values[0] != 1.0 or any(v != 0.0 for v in values.values[1:]):
        raise ValueError("reduction requires valuation (1, 0, ..., 0)")
    if not (0.0 < b1 <= 1.0):
        raise ValueError("learner scalar bid must lie in (0, 1]")
    learner = BidProfile((b1,) + (0.0,) * (k - 1))
    adversary = BidProfile((1.0,) * (k - 1) + (h,))
    outcome = clear_auction(learner, adversary, PricingRule.LAB, values)
    feedback_price = outcome.price if outcome.allocation > 0 else None
    return outcome.utility, (outcome.allocation, feedback_price)
