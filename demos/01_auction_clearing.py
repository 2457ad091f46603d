"""Single-shot K-unit uniform-price auction mechanics.

The learner and the aggregated adversary each submit K non-increasing bids.
All 2K bids are pooled; under last-accepted-bid (LAB) pricing the clearing
price is the K-th highest pooled bid, under first-rejected-bid (FRB) the
(K+1)-th.  Winners pay the price per item.
"""

from uniprice import (
    BidProfile,
    PricingRule,
    Valuation,
    clear_auction,
    clip_dominated,
    apply_tie_offset,
)

values = Valuation((1.0, 0.5))
learner = BidProfile((1.0, 0.5))
adversary = BidProfile((0.8, 0.3))

print("learner bids   :", learner.bids)
print("adversary bids :", adversary.bids)
print("marginal values:", values.values)
print()

for rule in (PricingRule.LAB, PricingRule.FRB):
    o = clear_auction(learner, adversary, rule, values)
    print(
        f"{rule.name}: price={o.price:.2f} items won={o.allocation} "
        f"utility={o.utility:+.2f}"
    )

# Bidding above value is dominated: clipping each bid at its marginal value
# never loses utility, whatever the adversary does.
greedy = BidProfile((1.0, 0.5))
modest_values = Valuation((0.6, 0.6))
clipped = clip_dominated(greedy, modest_values)
print()
print("bids", greedy.bids, "with values", modest_values.values, "->", clipped.bids)
for beta in (BidProfile((0.7, 0.1)), BidProfile((0.55, 0.45))):
    u_raw = clear_auction(greedy, beta, PricingRule.LAB, modest_values).utility
    u_clip = clear_auction(clipped, beta, PricingRule.LAB, modest_values).utility
    print(f"  vs {beta.bids}: raw {u_raw:+.2f}  clipped {u_clip:+.2f}")

# Ties between learner and adversary bids make the outcome ambiguous; a tiny
# uniform offset pushes grid bids off any fixed support almost surely.
grid_bids = BidProfile((0.5, 0.25))
shifted = apply_tie_offset(grid_bids, 0.011, 0.25)
print()
print("tie-avoidance shift:", grid_bids.bids, "->", shifted.bids)
