"""Deterministic tweet-text normalization.

The pipeline runs emoji replacement, then URL replacement, then hashtag
segmentation, then entity normalization, and finally collapses repeated
whitespace. Emoji replacement goes first so its plain-word output can never
be mistaken for a tag or mention, and URLs are removed before hashtag
segmentation so fragment anchors inside links are never split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from importlib import resources

from .outfile import numbered_lines

__all__ = [
    "RawTweet",
    "EmojiTable",
    "replace_urls",
    "segment_hashtags",
    "normalize_entities",
    "replace_emojis",
    "preprocess",
    "preprocess_text",
]


@dataclass(frozen=True)
class RawTweet:
    tweet_id: str
    user_id: str
    text: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"tweet {self.tweet_id!r}: label must be 0 or 1, got {self.label!r}")
        if not self.user_id:
            raise ValueError(f"tweet {self.tweet_id!r}: empty user_id")


# Combining marks that ride along with an emoji: variation selector,
# zero-width joiner, skin tones.
_VS16 = "️"
_ZWJ = "‍"
_SKIN_TONES = {chr(cp) for cp in range(0x1F3FB, 0x1F400)}
_EMOJI_RANGES = (
    (0x1F000, 0x1F0FF),
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F700, 0x1FAFF),
    (0x1F1E6, 0x1F1FF),
    (0x2600, 0x27BF),
    (0x2B00, 0x2BFF),
)
_EMOJI = "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]"
_MODIFIER = "[" + _VS16 + "".join(sorted(_SKIN_TONES)) + "]"
# An emoji and its modifiers, then any zero-width-joined emoji with theirs.
_CLUSTER = re.compile(f"{_EMOJI}{_MODIFIER}*(?:{_ZWJ}{_EMOJI}{_MODIFIER}*)*")
_MODIFIERS = re.compile(_MODIFIER)


class EmojiTable:
    """Emoji-to-phrase mapping loaded from a two-column TSV."""

    def __init__(self, mapping: dict[str, str]):
        for emoji, phrase in mapping.items():
            if not phrase.replace(" ", "").isalpha():  # str.isalpha: letters only, at least one
                raise ValueError(f"emoji phrase must be letters and spaces, at least one letter: {phrase!r}")
        self.mapping = dict(mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    @classmethod
    def from_tsv(cls, path) -> "EmojiTable":
        mapping: dict[str, str] = {}
        lines: dict[str, int] = {}  # the line each emoji is first listed on
        for lineno, line in numbered_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected emoji<TAB>phrase")
            emoji, phrase = line.split("\t", 1)
            if emoji in lines:
                raise ValueError(f"{path}:{lineno}: emoji {emoji!r} listed again (first on line {lines[emoji]})")
            mapping[emoji], lines[emoji] = phrase, lineno
        return cls(mapping)

    @classmethod
    def default(cls) -> "EmojiTable":
        ref = resources.files("offgraph").joinpath("data/emoji_table.tsv")
        with resources.as_file(ref) as path:
            return cls.from_tsv(path)

    def lookup(self, cluster: str) -> str | None:
        return self.mapping.get(cluster) or self.mapping.get(_MODIFIERS.sub("", cluster))


_URL = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S+|\bt\.co/\S+")


def replace_urls(text: str) -> str:
    """Every URL (any scheme://..., or a bare t.co shortlink) becomes ``http``."""
    return _URL.sub("http", text)


_HASHTAG = re.compile(r"#([A-Za-z0-9_]+)")
_TAG_PIECES = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")


def segment_hashtags(text: str) -> str:
    """Split ``#CamelCase2024Tags`` into space-separated words at case and digit boundaries."""

    def split(match: re.Match) -> str:
        return " ".join(_TAG_PIECES.findall(match.group(1)))

    return _HASHTAG.sub(split, text)


_EMAIL = re.compile(r"(?<![\w.])[\w.+-]+@[\w-]+(?:\.[\w-]+)+\b")
_MENTION = re.compile(r"(?<!\w)@\w+")
_MONEY = re.compile(r"(?<!\w)[$£€]\s?\d+(?:[.,]\d+)*\b")
_DATE = re.compile(r"\b\d{1,4}[/-]\d{1,2}[/-]\d{1,4}\b")
_TIME = re.compile(
    r"(?<![\w@$:/-])\d{1,2}:\d{2}(?::\d{2})?(?:\s?[ap]m)?\b"
    r"|(?<![\w@$:/.-])\d{1,2}\s?[ap]m\b",
    re.IGNORECASE,
)


def normalize_entities(text: str) -> str:
    """Uniformly rewrite mentions, emails, times, money, and dates to ``<category>``.

    A mention needs a non-word character (or start of text) before the ``@``,
    so constructs like ``me@5pm`` are left alone; the time pattern likewise
    refuses to fire directly after ``@`` or ``$``.
    """
    text = _EMAIL.sub("<email>", text)
    text = _MENTION.sub("<user>", text)
    text = _MONEY.sub("<money>", text)
    text = _DATE.sub("<date>", text)
    text = _TIME.sub("<time>", text)
    return text


def replace_emojis(text: str, table: EmojiTable | None = None) -> str:
    """Replace each emoji cluster with its table phrase, or ``<emoji>`` when unmapped.

    A cluster is one emoji codepoint plus any variation selectors, skin
    tones, and zero-width-joiner continuations. Spaces are inserted only
    where the replacement would otherwise fuse with adjacent words, so
    emoji-free text passes through byte-identical.
    """
    if table is None:
        table = EmojiTable.default()
    previous_end = -1

    def phrase(match: re.Match) -> str:
        nonlocal previous_end
        start, end = match.span()
        # right after the previous cluster, whose phrase already ends in a space
        before = "" if start in (0, previous_end) or text[start - 1].isspace() else " "
        after = "" if end == len(text) or text[end].isspace() else " "
        previous_end = end
        return before + (table.lookup(match.group()) or "<emoji>") + after

    return _CLUSTER.sub(phrase, text)


def preprocess_text(text: str, table: EmojiTable | None = None) -> str:
    """Full normalization pipeline; deterministic and idempotent."""
    if table is None:
        table = EmojiTable.default()
    text = replace_emojis(text, table)
    text = replace_urls(text)
    text = segment_hashtags(text)
    text = normalize_entities(text)
    return re.sub(r"\s+", " ", text).strip()


def preprocess(raw: RawTweet, table: EmojiTable | None = None) -> RawTweet:
    """Normalize the tweet text; ids and label pass through untouched."""
    return replace(raw, text=preprocess_text(raw.text, table))
