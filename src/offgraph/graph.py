"""Directed social graph with per-user behavior features.

Edges run follower -> followee and every node carries a self-loop. Node
features are always computed from training tweets only, which is how test
information is masked out of the graph: a user whose tweets all live in the
test split (or who never tweets) looks like a user with no history. Masking
never touches the edge structure.

Feature component order is (non_offensive_count, offensive_count): the
non-offensive initialization (1, 1e-6) only makes sense with the benign
count first, so that convention is fixed here and documented prominently.

``with_node_features`` builds all three variants from one lookup of the
training tweets' authors, each of whom must be a node of the graph:
  * soft: the (non_offensive, offensive) training counts per user; users
    without a training tweet take ``init_unknown_features``,
  * hard: a single 1.0 / 0.0 flag for "has posted offensive language",
  * bow:  binary bag-of-words over the user's training tweets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .corpus import Corpus, Split, Vocab, tokenize
from .preprocess import RawTweet

__all__ = [
    "SocialGraph",
    "build_graph",
    "init_unknown_features",
    "with_node_features",
    "mask_test_information",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
]

INIT_STRATEGIES = ("all0", "all1", "avg", "nonoff")
VARIANTS = ("soft", "hard", "bow")


@dataclass
class SocialGraph:
    """Users and their one adjacency, ``arcs``: a read-only ``[A, 2]`` int64 array of
    follower -> followee ids, sorted by (follower, followee), without repeats
    or self-follows. Every node also attends over itself; that self-loop is not stored."""

    nodes: list[str]
    arcs: np.ndarray
    features: np.ndarray | None = None
    variant: str = "none"
    init_strategy: str = "none"
    index: dict[str, int] = field(init=False)
    _edge_cache: dict[bool, tuple[np.ndarray, np.ndarray]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        # Checks only, never re-sorts: with_node_features re-runs this through replace().
        self.index = {u: i for i, u in enumerate(self.nodes)}
        arcs, n = self.arcs, len(self.nodes)
        if len(self.index) != n:
            raise ValueError(f"node names must be distinct, got {n} names for {len(self.index)} users")
        if not isinstance(arcs, np.ndarray) or arcs.dtype != np.int64 or arcs.shape[1:] != (2,):
            raise ValueError("arcs must be an [A, 2] int64 array")
        if np.any((arcs < 0) | (arcs >= n)):
            raise ValueError(f"arc node ids must lie in [0, {n})")
        if np.any(arcs[:, 0] == arcs[:, 1]):
            raise ValueError("arcs must not hold a self-follow")
        if np.any(np.diff(arcs[:, 0] * n + arcs[:, 1]) <= 0):
            raise ValueError("arcs must be sorted by (follower, followee) without repeats")
        if self.features is not None and (self.features.ndim != 2 or len(self.features) != n):
            raise ValueError(f"features must hold one row per node, [{n}, F], got shape {self.features.shape}")
        arcs.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs) + self.num_nodes  # one self-loop per node included

    def edge_arrays(self, symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Flat (source, neighbor) arrays over every attention neighborhood, sorted by that pair.

        A node attends over itself and its followees, plus its followers with
        ``symmetric``. The neighbors are built once per flag and the sources
        read off their offsets; both are returned read-only.
        """
        dst, offsets = self._csr(symmetric)
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(offsets))
        src.flags.writeable = False
        return src, dst

    def edge_count(self, symmetric: bool = False) -> int:
        """The length of ``edge_arrays(symmetric)``, from the cached neighbors."""
        return len(self._csr(symmetric)[0])

    def _csr(self, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        """``edge_arrays``' neighbors and CSR offsets: node i's edges are ``offsets[i]:offsets[i + 1]``."""
        if symmetric not in self._edge_cache:
            n, (follower, followee) = self.num_nodes, self.arcs.T
            loops = np.arange(n, dtype=np.int64)
            src = np.concatenate([loops, follower, followee] if symmetric else [loops, follower])
            dst = np.concatenate([loops, followee, follower] if symmetric else [loops, followee])
            src, dst = np.divmod(_distinct(src * n + dst), n)
            offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
            for array in (dst, offsets):
                array.flags.writeable = False
            self._edge_cache[symmetric] = (dst, offsets)
        return self._edge_cache[symmetric]

    def neighbourhood(
        self, users: np.ndarray, symmetric: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The part of ``edge_arrays(symmetric)`` that one attention layer reads to embed ``users``.

        ``users`` are sorted distinct node ids. Returns ``(nodes, src, dst, edges)``:
        the sorted ids of every node the users attend over (the users among them);
        the users' edges as positions in ``nodes``, in the full list's (src, dst)
        order; and those edges' positions in the full list.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1 or np.any(np.diff(users) <= 0):
            raise ValueError("users must be sorted distinct node ids")
        if len(users) and (users[0] < 0 or users[-1] >= self.num_nodes):
            raise ValueError(f"user node ids must lie in [0, {self.num_nodes})")
        dst, offsets = self._csr(symmetric)
        starts, counts = offsets[users], offsets[users + 1] - offsets[users]
        edges = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        neighbors = dst[edges]
        nodes = _distinct(neighbors)
        return nodes, np.searchsorted(nodes, np.repeat(users, counts)), np.searchsorted(nodes, neighbors), edges

    def node_ids(self, users: list[str]) -> np.ndarray:
        """The node id of each named user, in order; repeats allowed."""
        try:
            return np.fromiter((self.index[u] for u in users), dtype=np.int64, count=len(users))
        except KeyError as exc:
            raise ValueError(f"user {exc.args[0]!r} is not a node of the graph") from None

    def directed_edges(self) -> list[tuple[str, str]]:
        """The follower -> followee name pairs, in arc order."""
        return list(zip(*np.asarray(self.nodes, dtype=object)[self.arcs].T))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of non-negative keys; sorting and dropping repeats is ~20x faster in numpy 2.4."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _arcs(nodes: list[str], name_pairs) -> np.ndarray:
    """The canonical arc array of follower -> followee name pairs; repeats and self-follows drop out."""
    index = {u: i for i, u in enumerate(nodes)}
    if set(map(len, name_pairs)) - {2}:
        raise ValueError("every edge must be a (follower, followee) pair")
    try:
        ids = np.fromiter(map(index.__getitem__, chain.from_iterable(name_pairs)), dtype=np.int64).reshape(-1, 2)
    except KeyError as exc:
        raise ValueError(f"an edge names user {exc.args[0]!r}, who is not a node of the graph") from None
    ids = ids[ids[:, 0] != ids[:, 1]]
    return np.stack(np.divmod(_distinct(ids[:, 0] * len(nodes) + ids[:, 1]), len(nodes)), axis=1)


def build_graph(corpus: Corpus) -> SocialGraph:
    """One node per user and one arc per distinct follow relationship; self-loops are implied."""
    nodes = sorted(corpus.users)
    return SocialGraph(nodes=nodes, arcs=_arcs(nodes, corpus.edges))


def init_unknown_features(strategy: str, train_stats: tuple[float, float] | None = None) -> np.ndarray:
    """Soft-feature vector for a user with no training tweets."""
    _check_known("init strategy", strategy, INIT_STRATEGIES)
    if strategy == "all0":
        return np.array([0.0, 0.0])
    if strategy == "all1":
        return np.array([1.0, 1.0])
    if strategy == "nonoff":
        return np.array([1.0, 1e-6])
    if train_stats is None:
        raise ValueError("avg initialization needs the per-category training means")
    return np.array([float(train_stats[0]), float(train_stats[1])])


def _check_known(what: str, value, known: tuple) -> None:
    if value not in known:
        raise ValueError(f"unknown {what} {value!r}; expected one of {known}")


def with_node_features(
    graph: SocialGraph,
    train_tweets: list[RawTweet],
    variant: str = "soft",
    init_strategy: str = "nonoff",
    vocab: Vocab | None = None,
) -> SocialGraph:
    """New graph carrying features of the chosen variant, structure unchanged.

    Every training tweet's author must be a node; the first one that is not
    raises a ``ValueError`` naming it.
    """
    _check_known("graph variant", variant, VARIANTS)
    _check_known("init strategy", init_strategy, INIT_STRATEGIES)  # every variant records it, not only soft
    if variant == "bow" and vocab is None:
        raise ValueError("bow features need the vocabulary")
    rows = graph.node_ids([t.user_id for t in train_tweets])
    if variant == "bow":
        tokens = [[vocab.id_of(tok) for tok in tokenize(t.text)] for t in train_tweets]
        lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
        feats = np.zeros((graph.num_nodes, len(vocab)))
        feats[np.repeat(rows, lengths), np.fromiter(chain.from_iterable(tokens), dtype=np.int64)] = 1.0
    else:
        labels = np.fromiter((t.label for t in train_tweets), dtype=np.int64, count=len(train_tweets))
        counts = np.bincount(2 * rows + labels, minlength=2 * graph.num_nodes).reshape(-1, 2).astype(np.float64)
        if variant == "hard":
            feats = (counts[:, 1:] > 0).astype(np.float64)
        else:
            seen = counts.any(axis=1)
            means = counts[seen].mean(axis=0) if seen.any() else np.zeros(2)
            counts[~seen] = init_unknown_features(init_strategy, means)
            feats = counts
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
    """Inverse of ``graph_to_dict``; the adjacency is rebuilt from the edge list. A payload
    of the wrong types, or with a variant or init strategy that is not known or "none", raises."""
    nodes, edges, features = payload["nodes"], payload["edges"], payload.get("features")
    variant, init_strategy = payload.get("variant", "none"), payload.get("init_strategy", "none")
    if not isinstance(nodes, list) or not all(isinstance(u, str) for u in nodes):
        raise ValueError("the nodes must be a list of strings")
    if not isinstance(edges, list) or not all(isinstance(e, list) and list(map(type, e)) == [str, str] for e in edges):
        raise ValueError("every edge must be a [follower, followee] list of two strings")
    _check_known("graph variant", variant, (*VARIANTS, "none"))
    _check_known("init strategy", init_strategy, (*INIT_STRATEGIES, "none"))
    return SocialGraph(
        nodes=nodes,
        arcs=_arcs(nodes, edges),
        features=None if features is None else np.asarray(features, dtype=np.float64),
        variant=variant,
        init_strategy=init_strategy,
    )


def graph_to_json(graph: SocialGraph) -> str:
    return json.dumps(graph_to_dict(graph), ensure_ascii=False, indent=2)
