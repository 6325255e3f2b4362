"""Directed social graph with per-user behavior features.

Edges run follower -> followee and every node carries a self-loop. Node
features are always computed from training tweets only; users whose tweets
all live in the test split (or who never tweet) fall back to the configured
unknown-feature initialization, which is how test information is masked out
of the graph. Masking never touches the edge structure.

Feature component order is (non_offensive_count, offensive_count): the
non-offensive initialization (1, 1e-6) only makes sense with the benign
count first, so that convention is fixed here and documented prominently.

Three feature variants exist:
  * soft: the (non_offensive, offensive) training counts per user,
  * hard: a single 1.0 / 0.0 flag for "has posted offensive language",
  * bow:  binary bag-of-words over the user's training tweets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, Split, Vocab, tokenize
from .preprocess import RawTweet

__all__ = [
    "SocialGraph",
    "build_graph",
    "init_unknown_features",
    "soft_features",
    "hard_features",
    "bow_features",
    "with_node_features",
    "mask_test_information",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
]

INIT_STRATEGIES = ("all0", "all1", "avg", "nonoff")
VARIANTS = ("soft", "hard", "bow")


@dataclass
class SocialGraph:
    nodes: list[str]
    out_neighbors: list[list[int]]  # self first, then followed nodes
    features: np.ndarray | None = None
    variant: str = "none"
    init_strategy: str = "none"
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {u: i for i, u in enumerate(self.nodes)}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_arcs(self) -> int:
        return sum(len(n) for n in self.out_neighbors)

    def edge_arrays(self, symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Flat (source, neighbor) arrays over every attention neighborhood.

        The neighborhood of node i is itself plus its followees; with
        ``symmetric`` the followers are attended over as well.
        """
        hoods: list[set[int]] = [set(nbrs) for nbrs in self.out_neighbors]
        if symmetric:
            for i, nbrs in enumerate(self.out_neighbors):
                for j in nbrs:
                    hoods[j].add(i)
        src, dst = [], []
        for i, hood in enumerate(hoods):
            for j in sorted(hood):
                src.append(i)
                dst.append(j)
        return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)

    def directed_edges(self) -> list[tuple[str, str]]:
        """The deduplicated follower -> followee pairs, self-loops excluded."""
        out = []
        for i, nbrs in enumerate(self.out_neighbors):
            for j in nbrs:
                if j != i:
                    out.append((self.nodes[i], self.nodes[j]))
        return out


def _out_neighbors(nodes: list[str], edges) -> list[list[int]]:
    """Each node's sorted followees, the node itself first; repeats and self-follows collapse."""
    index = {u: i for i, u in enumerate(nodes)}
    followees: list[set[int]] = [set() for _ in nodes]
    for follower, followee in edges:
        if follower != followee:
            followees[index[follower]].add(index[followee])
    return [[i] + sorted(f) for i, f in enumerate(followees)]


def build_graph(corpus: Corpus) -> SocialGraph:
    """One node per user, a directed arc per relationship, self-loops added.

    Repeated relationships in the file collapse to one arc.
    """
    nodes = sorted(corpus.users)
    return SocialGraph(nodes=nodes, out_neighbors=_out_neighbors(nodes, corpus.edges))


def init_unknown_features(strategy: str, train_stats: tuple[float, float] | None = None) -> np.ndarray:
    """Soft-feature vector for a user with no training tweets."""
    if strategy == "all0":
        return np.array([0.0, 0.0])
    if strategy == "all1":
        return np.array([1.0, 1.0])
    if strategy == "nonoff":
        return np.array([1.0, 1e-6])
    if strategy == "avg":
        if train_stats is None:
            raise ValueError("avg initialization needs the per-category training means")
        return np.array([float(train_stats[0]), float(train_stats[1])])
    raise ValueError(f"unknown init strategy {strategy!r}; expected one of {INIT_STRATEGIES}")


def soft_features(graph: SocialGraph, train_tweets: list[RawTweet], init_strategy: str = "nonoff") -> np.ndarray:
    """Per-user (non_offensive, offensive) training counts, [n, 2]."""
    counts: dict[str, np.ndarray] = {}
    for t in train_tweets:
        row = counts.setdefault(t.user_id, np.zeros(2))
        row[1 if t.label == 1 else 0] += 1.0
    if init_strategy == "avg":
        known = np.array(list(counts.values())) if counts else np.zeros((1, 2))
        fallback = init_unknown_features("avg", (known[:, 0].mean(), known[:, 1].mean()))
    else:
        fallback = init_unknown_features(init_strategy)
    out = np.zeros((graph.num_nodes, 2))
    for i, user in enumerate(graph.nodes):
        out[i] = counts.get(user, fallback)
    return out


def hard_features(graph: SocialGraph, train_tweets: list[RawTweet]) -> np.ndarray:
    """1.0 if the user posted any offensive training tweet, else 0.0, [n, 1]."""
    offended = {t.user_id for t in train_tweets if t.label == 1}
    return np.array([[1.0 if u in offended else 0.0] for u in graph.nodes])


def bow_features(graph: SocialGraph, train_tweets: list[RawTweet], vocab: Vocab) -> np.ndarray:
    """Binary token-presence vectors over each user's training tweets, [n, |vocab|]."""
    out = np.zeros((graph.num_nodes, len(vocab)))
    for t in train_tweets:
        row = graph.index[t.user_id]
        for tok in tokenize(t.text):
            out[row, vocab.id_of(tok)] = 1.0
    return out


def with_node_features(
    graph: SocialGraph,
    train_tweets: list[RawTweet],
    variant: str = "soft",
    init_strategy: str = "nonoff",
    vocab: Vocab | None = None,
) -> SocialGraph:
    """New graph carrying features of the chosen variant, structure unchanged."""
    if variant == "soft":
        feats = soft_features(graph, train_tweets, init_strategy)
    elif variant == "hard":
        feats = hard_features(graph, train_tweets)
    elif variant == "bow":
        if vocab is None:
            raise ValueError("bow features need the vocabulary")
        feats = bow_features(graph, train_tweets, vocab)
    else:
        raise ValueError(f"unknown graph variant {variant!r}; expected one of {VARIANTS}")
    return replace(graph, features=feats, variant=variant, init_strategy=init_strategy)


def mask_test_information(graph: SocialGraph, split: Split, vocab: Vocab | None = None) -> SocialGraph:
    """Recompute node features from the training side only; edges stay put."""
    if graph.variant == "none":
        raise ValueError("graph has no feature variant to mask")
    return with_node_features(graph, split.train, graph.variant, graph.init_strategy, vocab)


def graph_to_dict(graph: SocialGraph) -> dict:
    """The JSON-ready payload: nodes, follower -> followee edges, features, variant, init strategy."""
    return {
        "nodes": graph.nodes,
        "edges": [list(e) for e in graph.directed_edges()],
        "features": None if graph.features is None else graph.features.tolist(),
        "variant": graph.variant,
        "init_strategy": graph.init_strategy,
    }


def graph_from_dict(payload: dict) -> SocialGraph:
    """Inverse of ``graph_to_dict``; the adjacency is rebuilt from the edge list."""
    nodes = list(payload["nodes"])
    features = payload.get("features")
    return SocialGraph(
        nodes=nodes,
        out_neighbors=_out_neighbors(nodes, payload["edges"]),
        features=None if features is None else np.asarray(features, dtype=np.float64),
        variant=payload.get("variant", "none"),
        init_strategy=payload.get("init_strategy", "none"),
    )


def graph_to_json(graph: SocialGraph) -> str:
    return json.dumps(graph_to_dict(graph), ensure_ascii=False, indent=2)


def graph_from_json(text: str) -> SocialGraph:
    return graph_from_dict(json.loads(text))
