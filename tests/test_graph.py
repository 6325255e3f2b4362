"""Social graph construction, behavior features, and test-information masking."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgraph.corpus import Corpus, build_vocab, split_corpus, tokenize
from offgraph.graph import (
    INIT_STRATEGIES,
    VARIANTS,
    SocialGraph,
    build_graph,
    graph_from_dict,
    graph_to_dict,
    graph_to_json,
    init_unknown_features,
    mask_test_information,
    with_node_features,
)
from offgraph.preprocess import RawTweet
from offgraph.synthetic import generate_corpus


def _tweet(i, user, label=0, text="hello world"):
    return RawTweet(f"t{i}", user, text, label)


def test_two_user_adjacency():
    corpus = Corpus(tweets=[_tweet(1, "x"), _tweet(2, "y")], edges=[("x", "y")])
    g = build_graph(corpus)
    assert g.nodes == ["x", "y"]
    assert np.array_equal(g.arcs, [[0, 1]])


def test_arc_count_includes_self_loops():
    corpus = generate_corpus(300, 40, seed=1)
    g = build_graph(corpus)
    assert g.num_nodes == len(corpus.users)
    assert g.num_arcs == len(set(corpus.edges)) + g.num_nodes


def test_repeated_edge_stored_once():
    corpus = Corpus(tweets=[_tweet(1, "x"), _tweet(2, "y")], edges=[("x", "y"), ("x", "y")])
    g = build_graph(corpus)
    assert g.directed_edges() == [("x", "y")]


def test_edge_arrays_symmetric_option():
    corpus = Corpus(tweets=[_tweet(1, "x"), _tweet(2, "y")], edges=[("x", "y")])
    g = build_graph(corpus)
    src, dst = g.edge_arrays()
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 0), (0, 1), (1, 1)]
    src, dst = g.edge_arrays(symmetric=True)
    assert (1, 0) in set(zip(src.tolist(), dst.tolist()))


def test_edge_arrays_are_built_once_per_flag_and_read_only():
    from dataclasses import replace

    from offgraph.gat import GatParams, gat_forward
    from offgraph.tensor import Tensor

    corpus = generate_corpus(300, 40, seed=1)
    g = with_node_features(build_graph(corpus), corpus.tweets, "soft", "nonoff")
    params = GatParams.init(2, 2, 4, np.random.default_rng(0))
    for symmetric in (False, True):
        first = g.edge_arrays(symmetric=symmetric)
        cached = g._csr(symmetric)
        again = g.edge_arrays(symmetric=symmetric)
        assert g._csr(symmetric) is cached and again[1] is first[1] is cached[0]  # the neighbors, built once
        assert np.array_equal(again[0], first[0])  # the sources, read off the cached offsets
        for array in (*first, *cached):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert g.edge_count(symmetric) == len(first[0]) == len(first[1])
        warm = gat_forward(Tensor(g.features), g, params, symmetric=symmetric).data
        cold = gat_forward(Tensor(g.features), replace(g), params, symmetric=symmetric).data  # nothing cached
        assert np.array_equal(warm, cold)
    assert len(g.edge_arrays(symmetric=True)[0]) > len(g.edge_arrays()[0])


# Up to 8 nodes and follow pairs (as node ids) that may repeat or be self-follows.
_follow_graphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
)


@settings(max_examples=200)
@given(_follow_graphs)
def test_arcs_and_edge_arrays_match_brute_force(graph_input):
    n, pairs = graph_input
    nodes = [f"u{i}" for i in range(n)]  # sorted as names and as ids
    g = build_graph(Corpus(tweets=[], edges=[(nodes[a], nodes[b]) for a, b in pairs], users=set(nodes)))
    follows = {(a, b) for a, b in pairs if a != b}
    assert g.arcs.dtype == np.int64 and g.arcs.shape == (len(follows), 2) and not g.arcs.flags.writeable
    assert g.arcs.tolist() == [list(p) for p in sorted(follows)]
    back = graph_from_dict(graph_to_dict(g))
    assert np.array_equal(back.arcs, g.arcs)
    for symmetric in (False, True):
        hoods = {(i, i) for i in range(n)} | follows | ({(b, a) for a, b in follows} if symmetric else set())
        src, dst = g.edge_arrays(symmetric=symmetric)
        assert list(zip(src.tolist(), dst.tolist())) == sorted(hoods)
        for got, want in zip(back.edge_arrays(symmetric=symmetric), (src, dst)):
            assert np.array_equal(got, want)


@settings(max_examples=200)
@given(_follow_graphs, st.sets(st.integers(0, 7)), st.booleans())
def test_neighbourhood_matches_brute_force(graph_input, wanted, symmetric):
    n, pairs = graph_input
    nodes = [f"u{i}" for i in range(n)]
    g = build_graph(Corpus(tweets=[], edges=[(nodes[a], nodes[b]) for a, b in pairs], users=set(nodes)))
    users = np.array(sorted(u for u in wanted if u < n), dtype=np.int64)
    src, dst = g.edge_arrays(symmetric=symmetric)
    hood, local_src, local_dst, edges = g.neighbourhood(users, symmetric=symmetric)
    assert edges.tolist() == [k for k, s in enumerate(src.tolist()) if s in set(users.tolist())]
    assert hood.tolist() == sorted(set(dst[edges].tolist()))
    assert set(users.tolist()) <= set(hood.tolist())
    assert np.array_equal(hood[local_src], src[edges]) and np.array_equal(hood[local_dst], dst[edges])
    # the local sources come from the users repeated by their edge counts, not from src[edges]
    assert np.array_equal(np.repeat(users, np.bincount(src, minlength=n)[users]), src[edges])


def test_neighbourhood_rejects_unsorted_or_unknown_users():
    g = build_graph(Corpus(tweets=[_tweet(1, "x"), _tweet(2, "y")], edges=[("x", "y")]))
    for users in ([1, 0], [0, 0], [2], [-1]):
        with pytest.raises(ValueError, match="users|node ids"):
            g.neighbourhood(np.array(users))
    with pytest.raises(ValueError, match="'z' is not a node"):
        g.node_ids(["x", "z"])


@settings(max_examples=100)
@given(_follow_graphs)
def test_constructor_rejects_non_canonical_arcs(graph_input):
    n, pairs = graph_input
    nodes = [f"u{i}" for i in range(n)]
    arcs = np.array(sorted({(a, b) for a, b in pairs if a != b}), dtype=np.int64).reshape(-1, 2)
    SocialGraph(nodes=nodes, arcs=arcs.copy())
    cases = [
        (np.vstack([arcs, [[n - 1, n]]]), "lie in"),
        (np.vstack([[[-1, 0]], arcs]), "lie in"),
        (np.vstack([arcs, [[n - 1, n - 1]]]), "self-follow"),
        (arcs.tolist(), "int64 array"),
        (arcs.astype(np.float64), "int64 array"),
    ]
    if len(arcs):
        cases.append((np.repeat(arcs, 2, axis=0), "sorted"))
    if len(arcs) > 1:
        cases.append((arcs[::-1].copy(), "sorted"))
    for bad, rule in cases:
        with pytest.raises(ValueError, match=rule):
            SocialGraph(nodes=nodes, arcs=bad)


# -- feature initialization ----------------------------------------------------


def test_init_strategies_exact_vectors():
    assert init_unknown_features("all0").tolist() == [0.0, 0.0]
    assert init_unknown_features("all1").tolist() == [1.0, 1.0]
    assert init_unknown_features("nonoff").tolist() == [1.0, 1e-6]
    assert init_unknown_features("avg", (7.9, 0.68)).tolist() == [7.9, 0.68]


def test_init_strategy_errors():
    with pytest.raises(ValueError, match="unknown init"):
        init_unknown_features("bogus")
    with pytest.raises(ValueError, match="means"):
        init_unknown_features("avg")


# -- soft features ---------------------------------------------------------------


def _toy_graph():
    corpus = Corpus(
        tweets=[_tweet(1, "a"), _tweet(2, "b")],
        edges=[("a", "b"), ("b", "c")],
    )
    return build_graph(corpus)


def test_soft_counts_non_offensive_first():
    g = _toy_graph()
    train = [_tweet(i, "a", label=0) for i in range(5)] + [_tweet(i + 10, "a", label=1) for i in range(3)]
    feats = with_node_features(g, train, "soft").features
    assert feats[g.index["a"]].tolist() == [5.0, 3.0]


def test_soft_unknown_user_gets_init():
    g = _toy_graph()
    feats = with_node_features(g, [_tweet(1, "a", label=0)], "soft", "nonoff").features
    assert feats[g.index["c"]].tolist() == [1.0, 1e-6]


def test_soft_avg_init_uses_training_means():
    g = _toy_graph()
    train = [_tweet(1, "a", 0), _tweet(2, "a", 0), _tweet(3, "b", 1)]
    feats = with_node_features(g, train, "soft", "avg").features
    # means over users with training tweets: non-off (2+0)/2, off (0+1)/2
    assert feats[g.index["c"]].tolist() == [1.0, 0.5]


def test_soft_total_conservation():
    corpus = generate_corpus(500, 60, seed=2)
    split = split_corpus(corpus, 0.7, np.random.default_rng(0))
    g = build_graph(corpus)
    feats = with_node_features(g, split.train, "soft", "all0").features
    non_off = sum(1 for t in split.train if t.label == 0)
    off = sum(1 for t in split.train if t.label == 1)
    assert feats[:, 0].sum() == non_off
    assert feats[:, 1].sum() == off


# -- hard and bow features ----------------------------------------------------


def test_hard_feature_rule():
    g = _toy_graph()
    feats = with_node_features(g, [_tweet(1, "a", 1), _tweet(2, "b", 0)], "hard").features
    assert feats[g.index["a"], 0] == 1.0
    assert feats[g.index["b"], 0] == 0.0
    assert feats[g.index["c"], 0] == 0.0


def test_bow_union_of_tweets():
    g = _toy_graph()
    train = [_tweet(1, "a", text="a b"), _tweet(2, "a", text="b c")]
    vocab = build_vocab(train)
    feats = with_node_features(g, train, "bow", vocab=vocab).features
    row = feats[g.index["a"]]
    assert {i for i in np.flatnonzero(row)} == {vocab.id_of("a"), vocab.id_of("b"), vocab.id_of("c")}
    assert feats[g.index["c"]].sum() == 0.0


def test_unknown_author_is_named():
    g = _toy_graph()
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="user 'zed' is not a node of the graph"):
            with_node_features(g, [_tweet(1, "a"), _tweet(2, "zed")], variant, vocab=build_vocab([]))


def test_unknown_init_strategy_is_rejected_for_every_variant():
    g = _toy_graph()
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="unknown init strategy 'bogus'"):
            with_node_features(g, [_tweet(1, "a")], variant, "bogus", vocab=build_vocab([]))


# Up to 6 users (u0 always a node) and up to 20 training tweets, each an
# (author, label, text) draw over a five-word alphabet.
_train_sides = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), st.lists(st.sampled_from("abcde"), max_size=4).map(" ".join)),
    max_size=20,
)


@settings(max_examples=100)
@given(st.integers(1, 6), _train_sides)
def test_features_match_a_per_tweet_recount(n, draws):
    nodes = [f"u{i}" for i in range(n)]
    g = build_graph(Corpus(tweets=[], edges=[], users=set(nodes)))
    train = [_tweet(i, nodes[a % n], label, text) for i, (a, label, text) in enumerate(draws)]
    vocab = build_vocab(train[: len(train) // 2])  # later tweets may hold out-of-vocabulary tokens
    counts = {u: [0.0, 0.0] for u in nodes}
    words = {u: set() for u in nodes}
    for t in train:
        counts[t.user_id][t.label] += 1.0
        words[t.user_id].update(vocab.id_of(tok) for tok in tokenize(t.text))
    seen = [c for c in counts.values() if sum(c)]
    means = [sum(c[k] for c in seen) / len(seen) if seen else 0.0 for k in (0, 1)]
    for strategy in INIT_STRATEGIES:
        fallback = {"all0": [0.0, 0.0], "all1": [1.0, 1.0], "nonoff": [1.0, 1e-6], "avg": means}[strategy]
        want = {
            "soft": [counts[u] if sum(counts[u]) else fallback for u in nodes],
            "hard": [[float(counts[u][1] > 0)] for u in nodes],
            "bow": [[float(i in words[u]) for i in range(len(vocab))] for u in nodes],
        }
        for variant in VARIANTS:
            got = with_node_features(g, train, variant, strategy, vocab)
            assert (got.variant, got.init_strategy) == (variant, strategy)
            assert got.features.dtype == np.float64 and got.features.tolist() == want[variant]


# -- masking --------------------------------------------------------------------


def test_masking_matches_recompute_oracle():
    corpus = generate_corpus(400, 50, seed=5)
    split = split_corpus(corpus, 0.7, np.random.default_rng(1))
    g = with_node_features(build_graph(corpus), corpus.tweets, "soft", "nonoff")
    masked = mask_test_information(g, split)

    # independent recount from the training split alone
    train_ids = split.train_ids
    expect = {}
    for t in corpus.tweets:
        if t.tweet_id in train_ids:
            row = expect.setdefault(t.user_id, [0.0, 0.0])
            row[t.label] += 1.0
    for i, user in enumerate(masked.nodes):
        want = expect.get(user, [1.0, 1e-6])
        assert masked.features[i].tolist() == want


def test_masking_keeps_structure():
    corpus = generate_corpus(200, 30, seed=6)
    split = split_corpus(corpus, 0.5, np.random.default_rng(2))
    g = with_node_features(build_graph(corpus), corpus.tweets, "soft")
    masked = mask_test_information(g, split)
    assert np.array_equal(masked.arcs, g.arcs)
    assert masked.nodes == g.nodes


def test_test_only_user_gets_init_not_counts():
    corpus = Corpus(
        tweets=[_tweet(1, "a", 1), _tweet(2, "b", 1), _tweet(3, "b", 0)],
        edges=[("a", "b")],
    )
    g = with_node_features(build_graph(corpus), corpus.tweets, "soft")
    split = split_corpus(corpus, 0.5, np.random.default_rng(0))
    only_test = [u for u in g.nodes if u not in {t.user_id for t in split.train}]
    masked = mask_test_information(g, split)
    for u in only_test:
        assert masked.features[masked.index[u]].tolist() == [1.0, 1e-6]


# -- serialization ----------------------------------------------------------------


def test_graph_json_roundtrip():
    corpus = generate_corpus(150, 25, seed=9)
    split = split_corpus(corpus, 0.7, np.random.default_rng(3))
    g = with_node_features(build_graph(corpus), split.train, "soft", "all1")
    back = graph_from_dict(json.loads(graph_to_json(g)))
    assert back.nodes == g.nodes
    assert np.array_equal(back.arcs, g.arcs)
    assert np.array_equal(back.features, g.features)
    assert (back.variant, back.init_strategy) == ("soft", "all1")


def test_graph_from_dict_names_an_edge_user_that_is_not_a_node():
    with pytest.raises(ValueError, match="^an edge names user 'ghost', who is not a node of the graph$"):
        graph_from_dict({"nodes": ["a", "b"], "edges": [["a", "b"], ["a", "ghost"]]})


def test_graph_from_dict_rejects_a_repeated_node_name():
    """A repeated name would map to its last row and leave the first row without a name."""
    with pytest.raises(ValueError, match="^node names must be distinct, got 3 names for 2 users$"):
        graph_from_dict({"nodes": ["a", "b", "a"], "edges": [["a", "b"]], "features": [[0.0], [1.0], [2.0]]})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"nodes": "abc"}, "the nodes must be a list of strings"),
        ({"nodes": [1, None, 2.5], "edges": []}, "the nodes must be a list of strings"),
        ({"nodes": ("a", "b", "c")}, "the nodes must be a list of strings"),
        ({"edges": ["ab"]}, "every edge must be a [follower, followee] list of two strings"),
        ({"edges": [("a", "b")]}, "every edge must be a [follower, followee] list of two strings"),
        ({"edges": [["a", 1]]}, "every edge must be a [follower, followee] list of two strings"),
        ({"edges": {"a": "b"}}, "every edge must be a [follower, followee] list of two strings"),
        ({"variant": "dense"}, "unknown graph variant 'dense'; expected one of ('soft', 'hard', 'bow', 'none')"),
        ({"variant": None}, "unknown graph variant None; expected one of ('soft', 'hard', 'bow', 'none')"),
        ({"init_strategy": 3}, "unknown init strategy 3; expected one of ('all0', 'all1', 'avg', 'nonoff', 'none')"),
    ],
)
def test_graph_from_dict_rejects_a_payload_of_the_wrong_types(change, message):
    """Each of these loaded before: a string of node names read as one name per character, and
    an edge "ab" as the arc a -> b."""
    payload = {"nodes": ["a", "b", "c"], "edges": [["a", "b"]], "variant": "soft", "init_strategy": "nonoff"}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        graph_from_dict({**payload, **change})


@pytest.mark.parametrize("edges", [[["a", "b", "a"]], [["a"]], [["a", "b"], ["b", "a", "b"], ["a"]]])
def test_graph_from_dict_rejects_an_edge_that_is_not_a_pair(edges):
    with pytest.raises(ValueError, match="every edge must be a"):
        graph_from_dict({"nodes": ["a", "b"], "edges": edges})
