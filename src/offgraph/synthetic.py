"""Synthetic social corpus with planted communities and offender clusters.

Used by the end-to-end tests and the ``gen-synthetic`` CLI command. Users are
spread over communities that follow each other densely within and sparsely
across; a handful of communities host the users who post offensive tweets, so
offensive language concentrates both per-author and per-community. Offensive
tweets carry extra tokens from a marker vocabulary, which is the signal a
text model must pick up; everything is made of pronounceable pseudo-words, so
no real offensive content ships with the repository.

Roughly 8% of tweets are offensive at the default rates, and a small set of
users posts nothing at all (their graph features must come from the unknown-
feature initialization).
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus
from .preprocess import RawTweet

__all__ = ["generate_corpus"]

_FUNCTION_WORDS = [
    "the", "a", "to", "and", "of", "in", "on", "for", "is", "it",
    "you", "we", "they", "my", "so", "not", "this", "that", "was", "be",
]

_EMOJIS = [
    "\U0001F600", "\U0001F602", "\U0001F525", "❤️", "\U0001F44D",
    "\U0001F62D", "\U0001F621", "\U0001F389", "\U0001F914", "\U0001F644",
    "\U0001F4AF", "\U0001F480",
]

_CONSONANTS = list("bcdfglmnprstvz")
_VOWELS = list("aeiou")


_NUM_COMMUNITIES = 10
_OFFENDER_COMMUNITIES = 3
_OFFENDER_RATE = 0.24  # per-tweet offensive probability inside offender communities
_BACKGROUND_RATE = 0.01
_MARKER_NOISE_RATE = 0.02  # benign tweets that still carry one marker token
_SILENT_FRACTION = 0.08  # users who never tweet


def _pseudo_word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


def _word_bank(rng: np.random.Generator, count: int, syllables: int) -> list[str]:
    words: list[str] = []
    seen = set(_FUNCTION_WORDS)
    while len(words) < count:
        word = _pseudo_word(rng, syllables)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate_corpus(num_tweets: int = 1000, num_users: int = 100, seed: int = 7) -> Corpus:
    """Deterministic planted corpus; same seed, same bytes."""
    if num_users < _NUM_COMMUNITIES:
        raise ValueError("need at least one user per community")
    rng = np.random.default_rng(seed)

    benign_words = _word_bank(rng, 160, 2)
    marker_words = _word_bank(rng, 24, 3)

    users = [f"u{i:03d}" for i in range(num_users)]
    community = np.array([i * _NUM_COMMUNITIES // num_users for i in range(num_users)])
    offender_comms = set(rng.choice(_NUM_COMMUNITIES, size=_OFFENDER_COMMUNITIES, replace=False).tolist())

    weights = rng.lognormal(0.0, 0.7, num_users)
    silent = rng.choice(num_users, size=max(1, int(_SILENT_FRACTION * num_users)), replace=False)
    weights[silent] = 0.0
    # equal tweet mass per community, so the offender share is structural
    for c in range(_NUM_COMMUNITIES):
        members = community == c
        total = weights[members].sum()
        if total > 0:
            weights[members] /= total * _NUM_COMMUNITIES
    weights /= weights.sum()

    authors = rng.choice(num_users, size=num_tweets, p=weights)
    in_offender_comm = np.array([community[a] in offender_comms for a in authors])
    offensive_flags = np.zeros(num_tweets, dtype=bool)
    for pool, rate in ((np.flatnonzero(in_offender_comm), _OFFENDER_RATE),
                       (np.flatnonzero(~in_offender_comm), _BACKGROUND_RATE)):
        count = int(round(rate * len(pool)))
        if count:
            offensive_flags[rng.choice(pool, size=count, replace=False)] = True

    tweets: list[RawTweet] = []
    for i in range(num_tweets):
        author = int(authors[i])
        offensive = bool(offensive_flags[i])

        length = int(rng.integers(8, 15))
        words = [
            _FUNCTION_WORDS[rng.integers(len(_FUNCTION_WORDS))]
            if rng.random() < 0.35
            else benign_words[rng.integers(len(benign_words))]
            for _ in range(length)
        ]
        if offensive:
            for pos in rng.choice(length, size=min(length, int(rng.integers(3, 6))), replace=False):
                words[pos] = marker_words[rng.integers(len(marker_words))]
        elif rng.random() < _MARKER_NOISE_RATE:
            words[rng.integers(length)] = marker_words[rng.integers(len(marker_words))]

        decorations = []
        if rng.random() < 0.20:
            a, b = rng.choice(benign_words, size=2, replace=False)
            decorations.append(f"#{a.capitalize()}{b.capitalize()}")
        if rng.random() < 0.15:
            decorations.append("@" + users[rng.integers(num_users)])
        if rng.random() < 0.25:
            decorations.append(_EMOJIS[rng.integers(len(_EMOJIS))])
        if rng.random() < 0.04:
            decorations.append(f"${rng.integers(1, 500)}")
        if rng.random() < 0.15:
            tail = "".join(rng.choice(list("abcdefghijkmnpqrstuvwxyz0123456789"), size=8))
            decorations.append(f"https://t.co/{tail}")
        text = " ".join(words + decorations)

        tweets.append(RawTweet(f"t{i:05d}", users[author], text, int(offensive)))

    edges: set[tuple[str, str]] = set()
    for i in range(num_users):
        peers = np.flatnonzero(community == community[i])
        peers = peers[peers != i]
        want = min(len(peers), 3 + int(rng.poisson(2.0)))
        for j in rng.choice(peers, size=want, replace=False):
            edges.add((users[i], users[int(j)]))
        if rng.random() < 0.3:
            outsiders = np.flatnonzero(community != community[i])
            j = int(rng.choice(outsiders))
            edges.add((users[i], users[j]))

    return Corpus(tweets=tweets, edges=sorted(edges), users=set(users))
