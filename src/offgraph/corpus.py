"""Corpus ingestion, vocabulary, token encoding, splits, and batching.

File formats:
  * tweets: UTF-8 JSON lines, one object per line with keys ``tweet_id``,
    ``user_id``, ``text``, ``label`` (integer 0/1),
  * edges: UTF-8 TSV, ``follower_id<TAB>followee_id`` per line.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .outfile import numbered_lines, write_chunks
from .preprocess import EmojiTable, RawTweet, preprocess

__all__ = [
    "Corpus",
    "Split",
    "Vocab",
    "TokenSequence",
    "load_tweets",
    "load_corpus",
    "write_tweets_jsonl",
    "write_edges_tsv",
    "preprocess_corpus",
    "split_corpus",
    "tokenize",
    "build_vocab",
    "encode",
    "batches",
]


@dataclass
class Corpus:
    tweets: list[RawTweet]
    edges: list[tuple[str, str]]
    users: set[str] = field(default_factory=set)

    def __post_init__(self):
        seen: set[str] = set()
        for tweet in self.tweets:
            if tweet.tweet_id in seen:
                raise ValueError(f"duplicate tweet_id {tweet.tweet_id!r}")
            seen.add(tweet.tweet_id)
        implied = {t.user_id for t in self.tweets}
        for follower, followee in self.edges:
            implied.add(follower)
            implied.add(followee)
        self.users = self.users | implied

    def __len__(self) -> int:
        return len(self.tweets)


def load_tweets(path) -> list[RawTweet]:
    """Parse a tweets JSONL file (ids as their text); a bad record raises ``path:lineno: bad tweet record``."""
    tweets: list[RawTweet] = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            text, label = obj["text"], obj["label"]
            for key in ("tweet_id", "user_id"):
                if type(obj[key]) not in (str, int):  # no null, bool, float, list or object to stringify
                    raise ValueError(f"{key} must be a string or an integer, got {obj[key]!r}")
            if not isinstance(text, str):
                raise ValueError(f"text must be a string, got {text!r}")
            if type(label) is not int:  # not a bool, a float or a string that would convert to one
                raise ValueError(f"label must be the integer 0 or 1, got {label!r}")
            tweets.append(RawTweet(tweet_id=str(obj["tweet_id"]), user_id=str(obj["user_id"]), text=text, label=label))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad tweet record: {exc}") from exc
    return tweets


def load_corpus(tweets_path, edges_path) -> Corpus:
    """Parse and validate the two data files; errors name the file, and the line where one line is at fault."""
    tweets = load_tweets(tweets_path)
    edges: list[tuple[str, str]] = []
    for lineno, line in numbered_lines(edges_path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{edges_path}:{lineno}: expected follower<TAB>followee")
        edges.append((parts[0], parts[1]))
    try:
        return Corpus(tweets=tweets, edges=edges)
    except ValueError as exc:  # a duplicate tweet_id
        raise ValueError(f"{tweets_path}: {exc}") from None


def write_tweets_jsonl(tweets: list[RawTweet], path) -> None:
    write_chunks(
        path,
        (
            json.dumps(
                {"tweet_id": t.tweet_id, "user_id": t.user_id, "text": t.text, "label": t.label},
                ensure_ascii=False,
            )
            + "\n"
            for t in tweets
        ),
    )


def write_edges_tsv(edges: list[tuple[str, str]], path) -> None:
    write_chunks(path, (f"{follower}\t{followee}\n" for follower, followee in edges))


def preprocess_corpus(corpus: Corpus) -> Corpus:
    """Run the text pipeline over every tweet with the packaged emoji table (idempotent, so safe to repeat)."""
    table = EmojiTable.default()
    return Corpus(
        tweets=[preprocess(t, table) for t in corpus.tweets],
        edges=list(corpus.edges),
        users=set(corpus.users),
    )


@dataclass
class Split:
    train: list[RawTweet]
    test: list[RawTweet]

    @property
    def train_ids(self) -> set[str]:
        return {t.tweet_id for t in self.train}

    @property
    def test_ids(self) -> set[str]:
        return {t.tweet_id for t in self.test}


def _partition(tweets: list[RawTweet], train_fraction: float, rng: np.random.Generator) -> tuple[list, list]:
    order = rng.permutation(len(tweets))
    # test size is the floor of the exact decimal product (1.0 - 0.8 is 0.19999999999999996 in floats);
    # train keeps the remainder
    n_test = int(len(tweets) * (1 - Fraction(str(train_fraction))))
    train_idx, test_idx = order[: len(tweets) - n_test], order[len(tweets) - n_test :]
    return [tweets[i] for i in train_idx], [tweets[i] for i in test_idx]


def split_corpus(corpus: Corpus, train_fraction: float, rng: np.random.Generator, stratify: bool = False) -> Split:
    """Uniform random partition of tweets drawn from ``rng`` (users may straddle both sides).

    With ``stratify`` the same rule is applied within each label class, which
    keeps the class ratio equal across sides.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not corpus.tweets:
        raise ValueError("cannot split an empty corpus")
    if not stratify:
        train, test = _partition(corpus.tweets, train_fraction, rng)
        return Split(train=train, test=test)
    train, test = [], []
    for label in (0, 1):
        group = [t for t in corpus.tweets if t.label == label]
        if group:
            tr, te = _partition(group, train_fraction, rng)
            train.extend(tr)
            test.extend(te)
    return Split(train=train, test=test)


@dataclass
class Vocab:
    """Dense token-id map with reserved padding/unknown/classifier slots."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    PAD = 0
    UNK = 1
    CLS = 2
    RESERVED = ("<pad>", "<unk>", "<cls>")

    def __post_init__(self):
        if tuple(self.tokens[:3]) != self.RESERVED:
            raise ValueError("vocabulary must start with the reserved tokens")
        if not all(isinstance(tok, str) for tok in self.tokens):
            raise ValueError("vocabulary tokens must be strings")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.UNK)


_TOKEN = re.compile(r"<[a-z]+>|[a-z0-9_]+(?:'[a-z]+)?")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; ``<placeholder>`` markers survive as single tokens."""
    return _TOKEN.findall(text.lower())


def build_vocab(train_tweets: list[RawTweet], min_freq: int = 1, max_size: int | None = None) -> Vocab:
    """Frequency vocabulary over the training split only (no test leakage)."""
    counts = Counter()
    for tweet in train_tweets:
        counts.update(tokenize(tweet.text))
    kept = [tok for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    if max_size is not None:
        kept = kept[: max(0, max_size - len(Vocab.RESERVED))]
    return Vocab(tokens=list(Vocab.RESERVED) + kept)


@dataclass
class TokenSequence:
    token_ids: np.ndarray
    author_id: str
    label: int
    tweet_id: str

    def __len__(self) -> int:
        return len(self.token_ids)


def encode(tweet: RawTweet, vocab: Vocab, max_len: int = 64) -> TokenSequence:
    """Token ids with a leading ``<cls>`` anchor, truncated to ``max_len``."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ids = [vocab.CLS] + [vocab.id_of(tok) for tok in tokenize(tweet.text)]
    return TokenSequence(
        token_ids=np.asarray(ids[:max_len], dtype=np.int64),
        author_id=tweet.user_id,
        label=tweet.label,
        tweet_id=tweet.tweet_id,
    )


def batches(items: list, batch_size: int, rng: np.random.Generator | None = None):
    """Yield the items in batches, in order, or in an order drawn from ``rng`` when given."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = np.arange(len(items)) if rng is None else rng.permutation(len(items))
    for start in range(0, len(items), batch_size):
        yield [items[i] for i in order[start : start + batch_size]]
