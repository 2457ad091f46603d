"""Exact sampling by weight pushing.

A weight sits on every node; an action's weight is the product over its
nodes.  The backward accumulator Gamma(h) sums the suffix products after h,
so walking the graph with transition probabilities W(h') Gamma(h') / Gamma(h)
samples actions exactly proportionally to their products - no enumeration of
the exponentially many actions.  A forward pass gives every node's exact
inclusion probability.
"""

from collections import Counter

import numpy as np

from uniprice import (
    BidProfile,
    build_graph,
    encode,
    exact_path_distribution,
    init_state,
    marginals,
    path_log_probability,
    sample_path,
)

g = build_graph(2, 2)
state = init_state(g)
rng = np.random.Generator(np.random.Philox(7))

# tilt a few weights so the distribution is not uniform
weights = np.random.default_rng(1).normal(0.0, 1.0, g.n_nodes)
state.log_w[:] = weights

dist = exact_path_distribution(state)  # brute-force normalization
print(f"{len(dist)} actions; exact vs sampled frequencies (100k draws):")
n = 100_000
# the walk returns the K bid levels of the action; encode gives its node ids
drawn = Counter(sample_path(state, rng) for _ in range(n))
counts = Counter({
    encode(BidProfile(tuple(float(g.levels[j]) for j in levels)), g): c
    for levels, c in drawn.items()
})
for path, p in sorted(dist.items(), key=lambda kv: -kv[1]):
    sampler_p = np.exp(path_log_probability(state, path))
    nodes = " ".join(g.label(i) for i in path)
    print(
        f"  {nodes:34s} exact {p:.4f}  walk-product {sampler_p:.4f}  "
        f"empirical {counts[path] / n:.4f}"
    )

print()
print("node inclusion probabilities from the forward-backward product")
print("(each bid row sums to one):")
marg = marginals(state)
for kk in (1, 2):
    row = marg[g.bid_ids(kk)]
    print(f"  bid row {kk}: {np.round(row, 4)} sum={row.sum():.6f}")

check = max(
    abs(sum(p for path, p in dist.items() if i in path) - marg[i])
    for i in range(g.n_nodes)
)
print(f"max |marginal - enumeration| = {check:.2e}")
