import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprice import (
    BidProfile,
    PricingRule,
    Valuation,
    apply_tie_offset,
    clear_auction,
    clip_dominated,
)
from uniprice.adversaries import AdversaryKind, AdversarySpec, check_adversary
from uniprice.auction_core import on_grid
from uniprice.errors import (
    NotMonotone,
    NotMonotoneResult,
    OffGrid,
    OffsetTooLarge,
    OutOfRange,
    TieDetected,
    WrongLength,
)

LAB, FRB = PricingRule.LAB, PricingRule.FRB


def off_grid_profile(rng, k, m):
    while True:
        draws = sorted(rng.uniform(0, 1, k), reverse=True)
        if all(round(b * m) / m != b and 0 < b < 1 for b in draws):
            return BidProfile(tuple(draws))


def check_profile(bids, k, *, epsilon=0.25, require_off_grid=False):
    """The adversary contract on one fixed profile."""
    spec = AdversarySpec(AdversaryKind.FIXED, k, fixed_profile=tuple(bids))
    check_adversary(spec, k, 1, epsilon, require_off_grid=require_off_grid)


class TestValidate:
    def test_valid_grid_profile(self):
        # a bid of 1 is illegal in both tie modes, so the grid profile is below it
        check_profile([0.75, 0.5], 2)

    def test_not_monotone(self):
        with pytest.raises(NotMonotone):
            check_profile([0.5, 1.0], 2)

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            check_profile([0.5], 2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            check_profile([1.2, 0.5], 2)

    def test_off_grid_contract(self):
        check_profile([0.83, 0.31], 2, epsilon=0.25, require_off_grid=True)
        with pytest.raises(TieDetected):
            check_profile([0.75, 0.31], 2, epsilon=0.25, require_off_grid=True)
        with pytest.raises(TieDetected):
            check_profile([1.0, 0.31], 2, epsilon=0.25, require_off_grid=True)


class TestOnGrid:
    def test_levels_and_their_neighbours(self):
        for m in range(1, 60):
            levels = np.arange(m + 1) / m
            assert on_grid(levels, 1.0 / m).all()
            assert all(on_grid(x, 1.0 / m) for x in levels.tolist())
            inner = levels[1:-1]
            for neighbour in (np.nextafter(inner, 2.0), np.nextafter(inner, -1.0)):
                assert not on_grid(neighbour, 1.0 / m).any()


class TestClearing:
    def test_lab_example(self):
        o = clear_auction(
            BidProfile((1.0, 0.5)), BidProfile((0.8, 0.3)), LAB, Valuation((1.0, 0.5))
        )
        assert o.price == 0.8
        assert o.allocation == 1
        assert o.utility == 1.0 - 0.8

    def test_frb_example(self):
        o = clear_auction(
            BidProfile((1.0, 0.5)), BidProfile((0.8, 0.3)), FRB, Valuation((1.0, 0.5))
        )
        assert o.price == 0.5
        assert o.allocation == 1
        assert o.utility == 0.5

    def test_zero_win(self):
        o = clear_auction(
            BidProfile((0.0, 0.0)), BidProfile((0.8, 0.3)), LAB, Valuation((1.0, 0.5))
        )
        assert (o.price, o.allocation, o.utility) == (0.3, 0, 0.0)

    def test_learner_duplicate_at_price_is_capped(self):
        # one item goes to the 0.8 bid, so only one of the two 0.5 bids wins
        o = clear_auction(
            BidProfile((0.5, 0.5)), BidProfile((0.8, 0.3)), LAB, Valuation((1.0, 0.5))
        )
        assert (o.price, o.allocation) == (0.5, 1)
        assert o.utility == 1.0 - 0.5

    def test_contested_cross_tie_raises(self):
        with pytest.raises(TieDetected):
            clear_auction(
                BidProfile((0.5, 0.5)), BidProfile((0.5, 0.3)), LAB, Valuation((1.0, 0.5))
            )

    def test_uncontested_cross_tie_resolves(self):
        # both 0.5 bids fit the two items left at the price
        o = clear_auction(
            BidProfile((0.5, 0.25)), BidProfile((0.5, 0.1)), LAB, Valuation((1.0, 0.5))
        )
        assert (o.price, o.allocation) == (0.5, 1)

    def test_frb_boundary_tie_raises(self):
        with pytest.raises(TieDetected):
            clear_auction(
                BidProfile((0.5, 0.5)), BidProfile((0.8, 0.3)), FRB, Valuation((1.0, 0.5))
            )

    def test_wrong_lengths(self):
        with pytest.raises(WrongLength):
            clear_auction(BidProfile((0.5,)), BidProfile((0.4, 0.2)), LAB, Valuation((1.0,)))
        with pytest.raises(WrongLength):
            clear_auction(
                BidProfile((0.5, 0.2)), BidProfile((0.4, 0.2)), LAB, Valuation((1.0,))
            )

    def test_clearing_consistency_exhaustive_small(self):
        # allocation counting vs adversary-bids-above-price, K <= 3
        rng = np.random.default_rng(11)
        for k, m in [(1, 4), (2, 3), (3, 2)]:
            grid = [j / m for j in range(m + 1)]
            import itertools

            profiles = [
                BidProfile(tuple(sorted(c, reverse=True)))
                for c in itertools.combinations_with_replacement(grid, k)
            ]
            for _ in range(40):
                beta = off_grid_profile(rng, k, m)
                v = Valuation(tuple(rng.uniform(0, 1, k)))
                for b in profiles:
                    o = clear_auction(b, beta, LAB, v)
                    above = sum(1 for x in beta.bids if x > o.price)
                    at_or_above_adv = sum(1 for x in beta.bids if x >= o.price)
                    at_or_above = sum(1 for x in b.bids if x >= o.price)
                    if o.allocation > 0:
                        # a price-setting adversary bid is itself accepted
                        if o.price not in b.bids:
                            assert at_or_above_adv == k - o.allocation
                        else:
                            assert above == k - o.allocation
                    assert o.allocation == min(at_or_above, k - above)
                    assert o.utility == sum(
                        v.values[l] - o.price for l in range(o.allocation)
                    )

    def test_price_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            b = sorted(rng.uniform(0, 1, k), reverse=True)
            beta = off_grid_profile(rng, k, 7)
            v = Valuation(tuple(np.ones(k)))
            p_base = clear_auction(BidProfile(tuple(b)), beta, LAB, v).price
            i = int(rng.integers(0, k))
            raised = list(b)
            raised[i] = min(1.0, raised[i] + float(rng.uniform(0, 1 - raised[i] + 1e-12)))
            raised = sorted(raised, reverse=True)
            try:
                p_up = clear_auction(BidProfile(tuple(raised)), beta, LAB, v).price
            except TieDetected:
                continue
            assert p_up >= p_base

    def test_frb_price_at_most_lab(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            b = BidProfile(tuple(sorted(rng.uniform(0, 1, k), reverse=True)))
            beta = off_grid_profile(rng, k, 9)
            v = Valuation(tuple(np.ones(k)))
            lab = clear_auction(b, beta, LAB, v).price
            try:
                frb = clear_auction(b, beta, FRB, v).price
            except TieDetected:
                continue
            assert frb <= lab

    @given(
        data=st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8),
        values=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_outcome_invariants_random(self, data, values):
        k = min(len(data) // 2, len(values))
        if k == 0:
            return
        b = BidProfile(tuple(sorted(data[:k], reverse=True)))
        beta = BidProfile(tuple(sorted(data[k : 2 * k], reverse=True)))
        v = Valuation(tuple(values[:k]))
        try:
            o = clear_auction(b, beta, LAB, v)
        except TieDetected:
            return
        assert 0 <= o.allocation <= k
        if o.allocation == 0:
            assert o.utility == 0.0
        assert -k <= o.utility <= k


class TestClipDominated:
    def test_elementwise_min(self):
        out = clip_dominated(BidProfile((0.9, 0.7)), Valuation((0.8, 0.5)))
        assert out.bids == (0.8, 0.5)

    def test_identity_when_bids_below_values(self):
        p = BidProfile((0.5, 0.2))
        assert clip_dominated(p, Valuation((1.0, 1.0))) is p

    def test_never_decreases_utility_spot(self):
        b = BidProfile((1.0, 0.5))
        v = Valuation((0.6, 0.6))
        beta = BidProfile((0.7, 0.1))
        raw = clear_auction(b, beta, LAB, v).utility
        clipped = clear_auction(clip_dominated(b, v), beta, LAB, v).utility
        assert clipped >= raw

    def test_reports_monotonicity_break(self):
        with pytest.raises(NotMonotoneResult):
            clip_dominated(BidProfile((0.9, 0.8)), Valuation((0.1, 0.8)))


class TestTieOffset:
    def test_zero_offset_identity(self):
        p = BidProfile((0.5, 0.25))
        assert apply_tie_offset(p, 0.0, 0.25) is p

    def test_uniform_shift(self):
        out = apply_tie_offset(BidProfile((0.5, 0.25)), 0.01, 0.25)
        assert out.bids == (0.51, 0.26)

    def test_top_bid_capped(self):
        out = apply_tie_offset(BidProfile((1.0, 0.5)), 0.01, 0.25)
        assert out.bids == (1.0, 0.51)
        assert out.bids[0] >= out.bids[1]

    def test_offset_too_large(self):
        with pytest.raises(OffsetTooLarge):
            apply_tie_offset(BidProfile((0.5, 0.25)), 0.25, 0.25)
        with pytest.raises(OffsetTooLarge):
            apply_tie_offset(BidProfile((0.5, 0.25)), -0.01, 0.25)

    def test_requires_grid_alignment(self):
        with pytest.raises(OffGrid):
            apply_tie_offset(BidProfile((0.51, 0.25)), 0.01, 0.25)
