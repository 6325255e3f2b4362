"""Corpus loading, splits, vocabulary, encoding, batching, synthetic data."""

import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgraph.corpus import (
    Corpus,
    Vocab,
    batches,
    build_vocab,
    encode,
    load_corpus,
    load_tweets,
    preprocess_corpus,
    split_corpus,
    tokenize,
    write_edges_tsv,
    write_tweets_jsonl,
)
from offgraph.preprocess import RawTweet
from offgraph.synthetic import generate_corpus


def _tweet(i, user="u1", text="hello world", label=0):
    return RawTweet(f"t{i}", user, text, label)


@pytest.fixture
def files(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    edges = tmp_path / "edges.tsv"
    write_tweets_jsonl([_tweet(1), _tweet(2, "u2", "more text", 1), _tweet(3, "u2")], tweets)
    write_edges_tsv([("u1", "u2"), ("u2", "u3")], edges)
    return tweets, edges


def test_load_corpus_counts(files):
    corpus = load_corpus(*files)
    assert len(corpus.tweets) == 3
    assert len(corpus.edges) == 2
    assert corpus.users == {"u1", "u2", "u3"}


def test_load_corpus_edge_only_user_kept(files):
    corpus = load_corpus(*files)
    assert "u3" in corpus.users
    assert not any(t.user_id == "u3" for t in corpus.tweets)


def test_duplicate_tweet_id_rejected():
    with pytest.raises(ValueError, match="t1"):
        Corpus(tweets=[_tweet(1), _tweet(1)], edges=[])


def test_malformed_tweet_line_reports_lineno(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text('{"tweet_id": "a", "user_id": "u", "text": "x", "label": 0}\nnot json\n')
    edges = tmp_path / "edges.tsv"
    edges.write_text("")
    with pytest.raises(ValueError, match=":2"):
        load_corpus(path, edges)


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("label", 0.7, "label must be the integer 0 or 1, got 0.7"),
        ("label", 1.0, "label must be the integer 0 or 1, got 1.0"),
        ("label", True, "label must be the integer 0 or 1, got True"),
        ("label", "1", "label must be the integer 0 or 1, got '1'"),
        ("text", None, "text must be a string, got None"),
        ("text", ["a"], "text must be a string, got ['a']"),
    ],
    ids=["label-0.7", "label-1.0", "label-true", "label-string", "text-null", "text-list"],
)
def test_a_tweet_record_with_a_label_or_text_of_the_wrong_type_is_rejected(tmp_path, field, value, problem):
    """Nothing is coerced: 0.7 is no label 0, nor true a label 1, nor null the text 'None'."""
    path = tmp_path / "tweets.jsonl"
    good = {"tweet_id": "t1", "user_id": "u", "text": "x", "label": 0}
    path.write_text("\n".join(json.dumps(r) for r in (good, {**good, "tweet_id": "t2", field: value})) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad tweet record: {re.escape(problem)}$"):
        load_tweets(path)


@pytest.mark.parametrize(
    "field, value",
    [("tweet_id", None), ("tweet_id", True), ("tweet_id", 1.5), ("user_id", [1]), ("user_id", {"id": 1})],
    ids=["tweet-id-null", "tweet-id-true", "tweet-id-float", "user-id-list", "user-id-object"],
)
def test_a_tweet_record_with_an_id_that_is_no_string_or_integer_is_rejected(tmp_path, field, value):
    """Nothing is stringified: null is no tweet 'None', nor [1] a user '[1]'."""
    path = tmp_path / "tweets.jsonl"
    good = {"tweet_id": "t1", "user_id": "u", "text": "x", "label": 0}
    path.write_text("\n".join(json.dumps(r) for r in (good, {**good, "tweet_id": "t2", field: value})) + "\n")
    problem = f"{field} must be a string or an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad tweet record: {re.escape(problem)}$"):
        load_tweets(path)


def test_numeric_tweet_and_user_ids_load_as_their_text(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text('{"tweet_id": 17, "user_id": 4, "text": "x", "label": 1}\n')
    assert load_tweets(path) == [RawTweet(tweet_id="17", user_id="4", text="x", label=1)]


def test_malformed_edge_line_reports_lineno(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    write_tweets_jsonl([_tweet(1)], tweets)
    edges = tmp_path / "edges.tsv"
    edges.write_text("u1\tu2\nu3 only\n")
    with pytest.raises(ValueError, match=":2"):
        load_corpus(tweets, edges)


def test_roundtrip_preserves_unicode(tmp_path):
    tweets = [_tweet(1, text="emoji \U0001F600 and продолжение")]
    path = tmp_path / "t.jsonl"
    write_tweets_jsonl(tweets, path)
    edges = tmp_path / "e.tsv"
    edges.write_text("")
    assert load_corpus(path, edges).tweets[0].text == tweets[0].text


# -- splits -------------------------------------------------------------------


def test_split_seven_three():
    corpus = Corpus(tweets=[_tweet(i) for i in range(10)], edges=[])
    split = split_corpus(corpus, 0.7, np.random.default_rng(0))
    assert (len(split.train), len(split.test)) == (7, 3)


def test_split_deterministic():
    corpus = Corpus(tweets=[_tweet(i) for i in range(50)], edges=[])
    a = split_corpus(corpus, 0.7, np.random.default_rng(4))
    b = split_corpus(corpus, 0.7, np.random.default_rng(4))
    assert a.train_ids == b.train_ids


def test_split_sparse_fraction_arithmetic():
    corpus = Corpus(tweets=[_tweet(i) for i in range(12780)], edges=[])
    split = split_corpus(corpus, 0.1, np.random.default_rng(1))
    assert len(split.train) == 1278


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=400),
    tenths=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    stratify=st.booleans(),
)
def test_split_partitions_ids_with_exact_floor_test_size(labels, tenths, seed, stratify):
    """The test side holds floor(n * (1 - fraction)) tweets, taken per class with ``stratify``."""
    corpus = Corpus(tweets=[_tweet(i, label=label) for i, label in enumerate(labels)], edges=[])
    split = split_corpus(corpus, tenths / 10, np.random.default_rng(seed), stratify)
    assert split.train_ids & split.test_ids == set()
    assert split.train_ids | split.test_ids == {t.tweet_id for t in corpus.tweets}
    for group in ({0}, {1}) if stratify else ({0, 1},):
        n = sum(label in group for label in labels)
        assert sum(t.label in group for t in split.test) == n * (10 - tenths) // 10


def test_split_stratified_keeps_ratio():
    tweets = [_tweet(i, label=int(i < 20)) for i in range(100)]
    split = split_corpus(Corpus(tweets=tweets, edges=[]), 0.7, np.random.default_rng(0), stratify=True)
    assert sum(t.label for t in split.train) == 14
    assert sum(t.label for t in split.test) == 6


def test_split_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        split_corpus(Corpus(tweets=[], edges=[]), 0.7, np.random.default_rng(0))
    with pytest.raises(ValueError):
        split_corpus(Corpus(tweets=[_tweet(1)], edges=[]), 1.0, np.random.default_rng(0))


# -- vocabulary and encoding ---------------------------------------------------


def test_vocab_min_freq_threshold():
    vocab = build_vocab([_tweet(1, text="a a b")], min_freq=2)
    assert "a" in vocab.index
    assert "b" not in vocab.index
    ids = encode(_tweet(2, text="b"), vocab).token_ids
    assert ids.tolist() == [Vocab.CLS, Vocab.UNK]


def test_vocab_reserved_slots():
    vocab = build_vocab([_tweet(1, text="x")])
    assert vocab.tokens[:3] == ["<pad>", "<unk>", "<cls>"]
    assert vocab.id_of("x") == 3


def test_vocab_max_size_keeps_most_frequent():
    vocab = build_vocab([_tweet(1, text="a a a b b c")], max_size=5)
    assert len(vocab) == 5
    assert {"a", "b"} <= set(vocab.tokens)
    assert "c" not in vocab.index


def test_tokenizer_keeps_placeholders():
    assert tokenize("<user> says HELLO to <emoji> #x don't") == [
        "<user>", "says", "hello", "to", "<emoji>", "x", "don't",
    ]


def test_encode_truncates_at_512():
    text = " ".join(f"w{i}" for i in range(600))
    vocab = build_vocab([_tweet(1, text=text)])
    seq = encode(_tweet(2, text=text), vocab, max_len=512)
    assert len(seq) == 512


def test_encode_desk_scale_truncation():
    text = " ".join(f"w{i}" for i in range(100))
    vocab = build_vocab([_tweet(1, text=text)])
    assert len(encode(_tweet(2, text=text), vocab, max_len=64)) == 64


def test_encode_empty_text_is_lone_cls():
    vocab = build_vocab([_tweet(1, text="x")])
    seq = encode(_tweet(2, text=""), vocab)
    assert seq.token_ids.tolist() == [Vocab.CLS]


def test_encode_decode_roundtrip():
    vocab = build_vocab([_tweet(1, text="alpha beta gamma")])
    seq = encode(_tweet(2, text="beta gamma alpha"), vocab)
    tokens = [vocab.tokens[i] for i in seq.token_ids]
    assert tokens[0] == "<cls>"
    re_ids = [vocab.id_of(tok) for tok in tokens[1:]]
    assert re_ids == seq.token_ids.tolist()[1:]


# -- batching -------------------------------------------------------------------


def test_batches_sizes():
    items = list(range(130))
    sizes = [len(b) for b in batches(items, 64)]
    assert sizes == [64, 64, 2]


def test_batches_eval_order_fixed():
    items = list(range(10))
    a = [x for b in batches(items, 3) for x in b]
    b = [x for b in batches(items, 3) for x in b]
    assert a == b == items


def test_batches_shuffle_covers_exactly_once():
    items = list(range(101))
    seen = [x for b in batches(items, 8, np.random.default_rng(3)) for x in b]
    assert Counter(seen) == Counter(items)
    assert seen != items


def test_batches_fresh_order_per_epoch():
    rng = np.random.default_rng(5)
    items = list(range(64))
    first = [x for b in batches(items, 16, rng) for x in b]
    second = [x for b in batches(items, 16, rng) for x in b]
    assert first != second


# -- synthetic corpus ------------------------------------------------------------


def test_synthetic_shape_and_determinism():
    a = generate_corpus(400, 50, seed=3)
    b = generate_corpus(400, 50, seed=3)
    assert len(a.tweets) == 400
    assert len({t.user_id for t in a.tweets}) <= 50
    assert [t.text for t in a.tweets] == [t.text for t in b.tweets]
    assert a.edges == b.edges


def test_synthetic_offensive_rate_near_target():
    corpus = generate_corpus(1000, 100, seed=7)
    rate = sum(t.label for t in corpus.tweets) / len(corpus.tweets)
    assert 0.04 < rate < 0.14


def test_synthetic_has_silent_users():
    corpus = generate_corpus(1000, 100, seed=7)
    active = {t.user_id for t in corpus.tweets}
    assert len(corpus.users - active) >= 1


def test_synthetic_offenders_cluster():
    corpus = generate_corpus(1000, 100, seed=7)
    # community blocks are contiguous user-id ranges of ten at these sizes
    per_block = Counter(int(t.user_id[1:]) // 10 for t in corpus.tweets if t.label == 1)
    top3 = sum(c for _, c in per_block.most_common(3))
    assert top3 / sum(per_block.values()) > 0.8


def test_synthetic_text_exercises_preprocessing():
    corpus = generate_corpus(1000, 100, seed=7)
    joined = " ".join(t.text for t in corpus.tweets)
    assert "https://t.co/" in joined
    assert "#" in joined
    assert "@u" in joined
    clean = preprocess_corpus(corpus)
    assert "https://" not in " ".join(t.text for t in clean.tweets)
