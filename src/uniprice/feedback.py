"""Feedback: the auction information each mode shows the learner.

Every mode shows the allocation x and the LAB price p; the modes differ
only in the adversary bids they reveal, highest first: none under bandit,
the K - x winning bids under all-winner, all K under full information.  So
all-winner interpolates between the other two with the auction's result,
a side-observation model.  Bandit also hides the price when x = 0.

All-winner also reads the round's events, computed from the raw profile;
that ``_observed`` hides what this record hides is a proven and tested
property (``learner.allwinner_signal``), not a structural one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .auction_core import AuctionOutcome, BidProfile


class FeedbackMode(Enum):
    FULL_INFORMATION = "full"
    BANDIT = "bandit"
    ALL_WINNER = "allwinner"


@dataclass(frozen=True)
class Feedback:
    """Allocation, price (None under bandit when nothing was won) and the
    revealed adversary bids, highest first."""

    allocation: int
    price: Optional[float]
    revealed: tuple[float, ...]


def make_feedback(mode: FeedbackMode, outcome: AuctionOutcome, adversary: BidProfile):
    """Narrow a clearing result to the mode's ``Feedback``."""
    x, p, bids = outcome.allocation, outcome.price, adversary.bids
    if mode is FeedbackMode.BANDIT:
        return Feedback(x, p if x > 0 else None, ())
    if mode is FeedbackMode.ALL_WINNER:
        return Feedback(x, p, bids[: len(bids) - x])
    return Feedback(x, p, bids)
