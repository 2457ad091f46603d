"""Adversary bid generators.

Every generator emits valid non-increasing profiles satisfying the off-grid
contract: bids strictly inside (0, 1) and never on the learner's grid, so
clearings are tie-free.  The first-price reduction environment is the one
deliberate exception (see below).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .auction_core import (
    BidProfile,
    PricingRule,
    Valuation,
    clear_auction,
    grid_level,
    validate_bid_profile,
)
from .errors import GridCollision, WrongLength

_MAX_REDRAWS = 64


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


def _draw_off_grid(rng: np.random.Generator, lo: float, hi: float, epsilon: float) -> float:
    """One uniform draw, redrawn on the measure-zero event of landing on the
    grid or the interval edge."""
    for _ in range(_MAX_REDRAWS):
        x = lo + (hi - lo) * rng.random()
        if 0.0 < x < 1.0 and grid_level(x, epsilon) is None:
            return x
    raise GridCollision(
        f"could not draw an off-grid value in ({lo}, {hi}) after {_MAX_REDRAWS} tries"
    )


def next_bids(
    spec: AdversarySpec,
    round_index: int,
    rng: np.random.Generator,
    epsilon: float,
    *,
    require_off_grid: bool = True,
) -> BidProfile:
    """Profile the adversary plays at ``round_index`` (1-based).

    ``require_off_grid=False`` relaxes the tie-free contract for runs that
    perturb the learner's bids instead (grid-aligned adversaries are then
    legal); monotonicity and range are always enforced.
    """
    if spec.kind is AdversaryKind.FIXED:
        return validate_bid_profile(
            spec.fixed_profile, spec.k, epsilon=epsilon, require_off_grid=require_off_grid
        )
    if spec.kind is AdversaryKind.IID_UNIFORM:
        lo, hi = spec.bounds
        if require_off_grid:
            draws = sorted(
                (_draw_off_grid(rng, lo, hi, epsilon) for _ in range(spec.k)),
                reverse=True,
            )
        else:
            draws = sorted(
                (lo + (hi - lo) * rng.random() for _ in range(spec.k)), reverse=True
            )
        return BidProfile(tuple(draws))
    if spec.kind is AdversaryKind.SCHEDULE:
        if not (1 <= round_index <= len(spec.schedule)):
            raise WrongLength(
                f"schedule holds {len(spec.schedule)} rounds, asked for {round_index}"
            )
        return validate_bid_profile(
            spec.schedule[round_index - 1],
            spec.k,
            epsilon=epsilon,
            require_off_grid=require_off_grid,
        )
    # First-price reduction: K-1 bids just under 1 and a scalar opposing bid.
    # The literal construction uses bids of exactly 1, which a learner bid of
    # 1 would tie; shaving them by an off-grid nudge keeps the no-tie
    # contract and preserves the reduction for every learner bid <= 1 - eps.
    nudge = reduction_top_nudge(epsilon)
    top = 1.0 - nudge
    if spec.h_value is not None:
        h = spec.h_value
        if grid_level(h, epsilon) is not None or not (0.0 < h < top):
            raise GridCollision(
                f"reduction scalar {h} must be off-grid inside (0, {top})"
            )
    else:
        lo, hi = spec.bounds
        h = _draw_off_grid(rng, lo, min(hi, top), epsilon)
    return BidProfile((top,) * (spec.k - 1) + (h,))


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
