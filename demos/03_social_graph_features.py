"""The social graph and its three node-feature variants.

Users are nodes, follower -> followee relationships are directed edges, and
every node gets a self-loop. Features always come from training tweets only;
users with no training tweets take the configured initialization, which is
how test information stays out of the graph.
"""

import numpy as np

from offgraph import (
    build_graph,
    build_vocab,
    generate_corpus,
    init_unknown_features,
    mask_test_information,
    split_corpus,
    with_node_features,
)

corpus = generate_corpus(400, 50, seed=7)
split = split_corpus(corpus, 0.7, np.random.default_rng(0))
print(f"corpus: {len(corpus.tweets)} tweets, {len(corpus.users)} users, {len(corpus.edges)} edges")
print(f"split: {len(split.train)} train / {len(split.test)} test tweets")

graph = build_graph(corpus)
print(f"graph: {graph.num_nodes} nodes, {graph.num_arcs} arcs including self-loops")

print("\n== unknown-feature initializations ==")
for strategy in ("all0", "all1", "nonoff"):
    print(f"  {strategy:7s} -> {init_unknown_features(strategy)}")
print(f"  {'avg':7s} -> per-category training means, e.g. {init_unknown_features('avg', (7.9, 0.68))}")

print("\n== soft features: (non_offensive, offensive) training counts ==")
soft = with_node_features(graph, split.train, "soft", "nonoff")
masked = mask_test_information(soft, split)
busiest = int(np.argmax(masked.features.sum(axis=1)))
print(f"  busiest user {masked.nodes[busiest]}: {masked.features[busiest]}")
silent = [u for u in masked.nodes if all(t.user_id != u for t in split.train)]
print(f"  {len(silent)} users have no training tweets; first few fall back to the init value:")
for user in silent[:3]:
    print(f"    {user}: {masked.features[masked.index[user]]}")

print("\n== hard features: a single ever-offended flag ==")
hard = with_node_features(graph, split.train, "hard")
print(f"  flagged users: {int(hard.features.sum())} of {graph.num_nodes}")

print("\n== bow features: binary token presence over the user's training tweets ==")
vocab = build_vocab(split.train)
bow = with_node_features(graph, split.train, "bow", vocab=vocab)
print(f"  feature width = vocabulary size = {bow.features.shape[1]}")
print(f"  mean tokens per user: {bow.features.sum(axis=1).mean():.1f}")

print("\nmasking keeps structure:", np.array_equal(masked.arcs, graph.arcs))
