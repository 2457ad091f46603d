import numpy as np
import pytest

from uniprice import (
    AdversaryKind,
    AdversarySpec,
    Valuation,
    next_bids,
    reduction_consistency_check,
)
from uniprice.adversaries import _MAX_REDRAWS, check_adversary, reduction_top_nudge
from uniprice.errors import ConfigError, GridCollision, TieDetected


def rng_from(seed):
    return np.random.Generator(np.random.Philox(seed))


def check_rows(block, epsilon, **kw):
    """Run the contract check on a drawn block, as a schedule of its rows."""
    t, k = block.shape
    spec = AdversarySpec(AdversaryKind.SCHEDULE, k, schedule=tuple(map(tuple, block.tolist())))
    check_adversary(spec, k, t, epsilon, **kw)


class ListRng:
    """Stands in for a Generator: ``random`` hands out the given values in
    order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        n = int(np.prod(shape))
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out, dtype=float).reshape(shape)


class TestFixed:
    def test_returns_profile_every_round(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.83, 0.31))
        block = next_bids(spec, 100, rng_from(0), 0.25)
        assert block.shape == (100, 2)
        for t in (1, 5, 100):
            assert tuple(block[t - 1].tolist()) == (0.83, 0.31)

    def test_grid_aligned_profile_rejected(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.75, 0.31))
        with pytest.raises(TieDetected):
            check_adversary(spec, 2, 1, 0.25)

    def test_grid_aligned_allowed_without_contract(self):
        spec = AdversarySpec(AdversaryKind.FIXED, 2, fixed_profile=(0.75, 0.31))
        check_adversary(spec, 2, 1, 0.25, require_off_grid=False)
        block = next_bids(spec, 1, rng_from(0), 0.25, require_off_grid=False)
        assert tuple(block[0].tolist()) == (0.75, 0.31)


class TestIIDUniform:
    def test_sorted_off_grid_in_open_interval(self):
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 3)
        block = next_bids(spec, 59, rng_from(1), 0.25)
        check_rows(block, 0.25)
        assert (block[:, 0] >= block[:, 1]).all() and (block[:, 1] >= block[:, 2]).all()

    def test_bounds_respected(self):
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(0.4, 0.6))
        block = next_bids(spec, 39, rng_from(2), 0.2)
        assert ((0.4 <= block) & (block <= 0.6)).all()

    def test_deterministic_given_generator_state(self):
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 2)
        a = next_bids(spec, 3, rng_from(3), 0.25)
        b = next_bids(spec, 3, rng_from(3), 0.25)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("require_off_grid", [True, False])
    def test_block_is_the_per_round_scalar_draws(self, require_off_grid):
        # one (T, K) draw reads the stream in the order T x K scalar draws
        # did, one profile a round, each sorted descending
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 3, bounds=(0.1, 0.9))
        block = next_bids(spec, 500, rng_from(6), 0.1, require_off_grid=require_off_grid)
        rng = rng_from(6)
        for row in block:
            draws = sorted((0.1 + (0.9 - 0.1) * rng.random() for _ in range(3)), reverse=True)
            assert tuple(row.tolist()) == tuple(draws)

    def test_on_grid_draws_are_redrawn_from_the_stream(self):
        # 0.5 and 1.0 are grid points at epsilon 0.25, 0.0 is an edge
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 2)
        rng = ListRng([0.5, 0.3, 0.9, 0.0, 0.6, 0.7, 0.1])
        block = next_bids(spec, 2, rng, 0.25)
        assert block.tolist() == [[0.6, 0.3], [0.9, 0.7]]
        assert rng.values == [0.1]

    def test_redraws_give_up_with_grid_collision(self):
        # every draw of this interval is on the grid: the contract rejects
        # it, and next_bids, which checks nothing, gives up after the redraws
        spec = AdversarySpec(AdversaryKind.IID_UNIFORM, 2, bounds=(0.5, 0.5))
        with pytest.raises(GridCollision, match="single value"):
            check_adversary(spec, 2, 4, 0.25)
        with pytest.raises(GridCollision, match=f"after {_MAX_REDRAWS} tries"):
            next_bids(spec, 4, rng_from(0), 0.25)


class TestSchedule:
    def test_round_indexing(self):
        spec = AdversarySpec(
            AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31), (0.61, 0.11))
        )
        block = next_bids(spec, 2, rng_from(0), 0.25)
        assert tuple(block[0].tolist()) == (0.83, 0.31)
        assert tuple(block[1].tolist()) == (0.61, 0.11)

    def test_out_of_range_round(self):
        spec = AdversarySpec(AdversaryKind.SCHEDULE, 2, schedule=((0.83, 0.31),))
        with pytest.raises(ConfigError):
            check_adversary(spec, 2, 2, 0.25)


class TestFirstPriceReduction:
    def test_profile_shape(self):
        spec = AdversarySpec(
            AdversaryKind.FIRST_PRICE_REDUCTION, 3, h_value=0.27
        )
        check_adversary(spec, 3, 1, 0.25)
        block = next_bids(spec, 1, rng_from(0), 0.25)
        top = 1.0 - reduction_top_nudge(0.25)
        assert tuple(block[0].tolist()) == (top, top, 0.27)
        check_rows(block, 0.25)

    def test_uniform_scalar_source(self):
        spec = AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2)
        block = next_bids(spec, 29, rng_from(4), 0.25)
        tops = 1.0 - reduction_top_nudge(0.25)
        assert (block[:, 0] == tops).all()
        assert ((0 < block[:, 1]) & (block[:, 1] < tops)).all()
        assert len(set(block[:, 1].tolist())) > 1

    def test_on_grid_scalar_rejected(self):
        spec = AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2, h_value=0.5)
        with pytest.raises(GridCollision):
            check_adversary(spec, 2, 1, 0.25)

    def test_uniform_lower_bound_above_the_top_rejected(self):
        # top = 1 - 0.25/sqrt(2) = 0.8232; h would be drawn from (top, 0.95]
        spec = AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2, bounds=(0.95, 1.0))
        with pytest.raises(ConfigError, match="lower bound 0.95"):
            check_adversary(spec, 2, 200, 0.25)
        check_adversary(
            AdversarySpec(AdversaryKind.FIRST_PRICE_REDUCTION, 2, bounds=(0.8, 1.0)),
            2, 200, 0.25,
        )


class TestReductionCheck:
    def first_price(self, b1, h):
        won = b1 > h
        utility = (1.0 - b1) if won else 0.0
        feedback = (1, b1) if won else (0, None)
        return utility, feedback

    def test_examples(self):
        v = Valuation((1.0, 0.0))
        assert reduction_consistency_check(0.5, 0.27, v) == (0.5, (1, 0.5))
        assert reduction_consistency_check(0.25, 0.27, v) == (0.0, (0, None))
        assert reduction_consistency_check(1.0, 0.27, v) == (0.0, (1, 1.0))

    def test_matches_first_price_formulas(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            v = Valuation((1.0,) + (0.0,) * (k - 1))
            for b1 in (0.25, 0.5, 0.75, 1.0):
                for _ in range(25):
                    h = float(rng.uniform(0.01, 0.99))
                    if round(h * 4) == h * 4:
                        continue
                    got = reduction_consistency_check(b1, h, v)
                    assert got == self.first_price(b1, h)

    def test_requires_unit_first_value(self):
        with pytest.raises(ValueError):
            reduction_consistency_check(0.5, 0.27, Valuation((0.9, 0.0)))
