"""Feedback views: the auction information each mode shows the learner.

All-winner also reads the round's events, computed from the raw profile;
that ``_observed`` hides what this view hides is a proven and tested
property (``learner.allwinner_signal``), not a structural one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .auction_core import AuctionOutcome, BidProfile
from .learner import FeedbackMode


@dataclass(frozen=True)
class BanditFeedback:
    """Allocation always; price only when something was won."""

    allocation: int
    price: Optional[float]


@dataclass(frozen=True)
class AllWinnerFeedback:
    """Allocation, price, and every winning adversary bid (the top K - x)."""

    allocation: int
    price: float
    adversary_winning_bids: tuple[float, ...]


@dataclass(frozen=True)
class FullInfoFeedback:
    """The entire adversary profile."""

    allocation: int
    price: float
    adversary_bids: tuple[float, ...]


def make_feedback(mode: FeedbackMode, outcome: AuctionOutcome, adversary: BidProfile):
    """Narrow a clearing result to what the feedback model reveals."""
    if mode is FeedbackMode.BANDIT:
        price = outcome.price if outcome.allocation > 0 else None
        return BanditFeedback(outcome.allocation, price)
    if mode is FeedbackMode.ALL_WINNER:
        n_reveal = len(adversary.bids) - outcome.allocation
        return AllWinnerFeedback(
            outcome.allocation,
            outcome.price,
            tuple(adversary.bids[:n_reveal]),
        )
    return FullInfoFeedback(outcome.allocation, outcome.price, adversary.bids)
