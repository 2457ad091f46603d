"""The bid / bid-gap action graph.

Grid bid profiles are re-encoded as paths in a DAG whose nodes are binary
statements: "the k-th bid equals j*eps" (bid node) or "the open band
(j*eps, (j+1)*eps) separates bids k and k+1" (gap node).  Paths are in
bijection with grid profiles, and against a fixed off-grid adversary every
node either always or never produces its outcome when played - so the whole
utility of an action is carried by (at most) one firing node.
"""

import numpy as np

from uniprice import (
    BidProfile,
    PricingRule,
    Valuation,
    build_graph,
    clear_auction,
    decode,
    encode,
    enumerate_paths,
    firing_node,
    firing_set,
    node_fires,
    path_utility,
)

K, M = 2, 4  # two items, grid step 1/4
g = build_graph(K, M)
print(f"K={K}, 1/eps={M}: {g.n_nodes} nodes, {g.n_paths()} actions")
print()

profile = BidProfile((1.0, 0.5))
path = encode(profile, g)
print("bids", profile.bids, "encode to node ids", path)
print("  that is", " -> ".join(g.label(i) for i in path))
print("decode back:", decode(path, g).bids)
print()

adversary = BidProfile((0.8, 0.3))
values = Valuation((1.0, 0.5))
print("against adversary", adversary.bids, "the firing nodes are:")
for i, allocation, price in firing_set(adversary.bids, g):
    print(f"  {g.label(i)} (id {i}): allocation {allocation}, price {price:.2f}")
print()

print("utility decomposition over all actions (sub-utility sums vs clearing):")
for p in enumerate_paths(g):
    bids = decode(p, g)
    u_clear = clear_auction(bids, adversary, PricingRule.LAB, values).utility
    u_path = path_utility(p, adversary, values, g)
    star = firing_node(p, adversary, g)
    assert u_path == u_clear
    if star is not None and abs(u_clear) > 1e-12:
        print(f"  bids {bids.bids}: u={u_clear:+.3f} credited to {g.label(star)}")
print("  (all", g.n_paths(), "actions matched exactly; zero-win actions omitted)")
