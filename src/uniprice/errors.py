"""Exception types shared across the package."""


class AuctionError(Exception):
    """Base class for every domain error raised by this package."""


class WrongLength(AuctionError):
    """A bid or valuation sequence does not have exactly K entries."""


class NotMonotone(AuctionError):
    """A bid sequence is not non-increasing."""


class OutOfRange(AuctionError):
    """A bid or valuation lies outside [0, 1]."""


class OffGrid(AuctionError):
    """A bid that must be a multiple of the grid step is not."""


class TieDetected(AuctionError):
    """A learner bid collides with an adversary bid in a way that makes the
    clearing outcome ambiguous, violating the no-tie contract."""


class NotMonotoneResult(AuctionError):
    """Dominated-strategy clipping produced a non-monotone profile."""


class OffsetTooLarge(AuctionError):
    """Tie-avoidance offset is negative or not below the grid step."""


class MalformedPath(AuctionError):
    """A node sequence does not describe a valid action in the bid graph."""


class TooLarge(AuctionError):
    """An exhaustive computation was requested on an instance above the cap."""


class ZeroMarginal(AuctionError):
    """The sampled action contains a node with zero inclusion probability;
    indicates an inconsistency between sampler and marginals."""


class ZeroObservationProbability(AuctionError):
    """An observable node has zero observation probability; indicates an
    inconsistency in the all-winner estimator."""


class GridCollision(AuctionError):
    """An adversary generator repeatedly produced grid-aligned bids."""


class HorizonTooShort(AuctionError):
    """Horizon T must exceed K for the default parameter choices."""


class ConfigError(AuctionError):
    """Invalid or incomplete experiment configuration."""


class WeightOverflow(AuctionError):
    """The log weights left floating-point range: the learning rate is too
    large for the run."""
