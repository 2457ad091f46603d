"""Single-shot K-unit uniform-price auction mechanics.

The learner submits a non-increasing profile of K bids, the aggregated
adversary another K.  All 2K bids are pooled; the clearing price is the
K-th highest bid under last-accepted-bid (LAB) pricing or the (K+1)-th
highest under first-rejected-bid (FRB) pricing.  Winners pay the clearing
price for every item they receive.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    NotMonotoneResult,
    OffGrid,
    OffsetTooLarge,
    TieDetected,
    WrongLength,
)


class PricingRule(enum.Enum):
    LAB = "lab"
    FRB = "frb"


@dataclass(frozen=True)
class BidProfile:
    """A non-increasing sequence of K bids in [0, 1]."""

    bids: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.bids)


@dataclass(frozen=True)
class Valuation:
    """Marginal value of the k-th item, k = 1..K.  Monotonicity not assumed."""

    values: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of clearing one auction from the learner's point of view."""

    price: float
    allocation: int
    utility: float


def on_grid(x, epsilon: float):
    """Elementwise: is x exactly a grid point j / (1/epsilon)?

    1/epsilon is an integer everywhere in this package, and grid points are
    canonically the float quotients j / (1/epsilon) - correctly rounded, and
    exactly 0 and 1 at the ends for every grid size - so the check is exact
    float equality against the canonical value.  ``x`` may be a float or an
    array.
    """
    m = round(1.0 / epsilon)
    return np.rint(x * m) / m == x


def utility_sum(values: Sequence[float], allocation: int, price: float) -> float:
    """Quasi-linear utility of winning ``allocation`` items at ``price``.

    Shared by the clearing and the per-node sub-utilities so that both sides
    run bitwise-identical arithmetic.
    """
    total = 0.0
    for l in range(allocation):
        total += values[l] - price
    return total


def clear_auction(
    learner: BidProfile,
    adversary: BidProfile,
    rule: PricingRule,
    values: Valuation,
) -> AuctionOutcome:
    """Clear one K-unit uniform-price auction.

    LAB: price is the K-th highest pooled bid; the learner wins its bids at
    or above the price, capped by the K - (adversary bids above price) items
    actually left.  The cap matters only when the learner holds several bids
    exactly at the price; counting them all would hand out more than K items.

    FRB: price is the (K+1)-th highest pooled bid; the learner wins bids
    strictly above it.

    Raises TieDetected only when a learner/adversary collision makes the
    outcome genuinely ambiguous (contested items at the clearing price, or a
    learner bid sitting at the FRB boundary).
    """
    b, beta = learner.bids, adversary.bids
    kk = len(b)
    if len(beta) != kk:
        raise WrongLength("learner and adversary profiles must have equal length")
    if values.k != kk:
        raise WrongLength("valuation length must match the number of items")

    pooled = sorted(b + beta, reverse=True)
    if rule is PricingRule.LAB:
        price = pooled[kk - 1]
    else:
        price = pooled[kk]

    b_above = sum(1 for x in b if x > price)
    b_at = sum(1 for x in b if x == price)
    a_above = sum(1 for x in beta if x > price)
    a_at = sum(1 for x in beta if x == price)

    if rule is PricingRule.LAB:
        slots_at = kk - b_above - a_above  # items left for bids equal to the price
        if b_at and a_at and b_at + a_at > slots_at:
            raise TieDetected(
                f"learner and adversary both bid {price} with only "
                f"{slots_at} item(s) left at that price"
            )
        if a_at and not b_at:
            allocation = b_above
        else:
            allocation = b_above + min(b_at, slots_at)
    else:
        if pooled[kk - 1] == price and b_at:
            # Learner bids at the boundary price would contend for the items
            # left there; the strict ">" counting rule is ambiguous then.
            raise TieDetected(
                f"learner bid equal to the FRB clearing price {price} "
                "with a collapsed boundary"
            )
        allocation = b_above

    utility = utility_sum(values.values, allocation, price)
    return AuctionOutcome(price, allocation, utility)


def clip_dominated(bids: BidProfile, values: Valuation) -> BidProfile:
    """Clip every bid at its marginal value: b_i -> min(v_i, b_i).

    The clipped profile never earns less than the original against any
    adversary.  If the valuation ordering breaks monotonicity of the result,
    that is reported rather than silently repaired.
    """
    if values.k != bids.k:
        raise WrongLength("valuation length must match the profile")
    clipped = tuple(min(v, b) for v, b in zip(values.values, bids.bids))
    for a, b in zip(clipped, clipped[1:]):
        if a < b:
            raise NotMonotoneResult(
                f"clipping against {values.values} breaks monotonicity: {clipped}"
            )
    if clipped == bids.bids:
        return bids
    return BidProfile(clipped)


def apply_tie_offset(bids: BidProfile, offset: float, epsilon: float) -> BidProfile:
    """Shift a grid-aligned profile by a common offset in [0, epsilon).

    Drawing the offset uniformly puts the bids off any fixed adversary
    support almost surely.  Shifted bids are capped at 1, which perturbs the
    top grid point only and by less than the offset itself.
    """
    if not (0.0 <= offset < epsilon):
        raise OffsetTooLarge(f"offset {offset} must lie in [0, {epsilon})")
    for b in bids.bids:
        if not on_grid(b, epsilon):
            raise OffGrid(f"bid {b} is not aligned to the {epsilon}-grid")
    if offset == 0.0:
        return bids
    shifted = tuple(min(b + offset, 1.0) for b in bids.bids)
    return BidProfile(shifted)
