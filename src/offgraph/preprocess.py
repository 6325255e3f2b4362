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
_EMOJI_CHAR = re.compile("[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _EMOJI_RANGES) + "]")


class EmojiTable:
    """Emoji-to-phrase mapping loaded from a two-column TSV."""

    def __init__(self, mapping: dict[str, str]):
        for emoji, phrase in mapping.items():
            if not phrase or not all(c.isalpha() or c == " " for c in phrase):
                raise ValueError(f"emoji phrase must be letters and spaces: {phrase!r}")
        self.mapping = dict(mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    @classmethod
    def from_tsv(cls, path) -> "EmojiTable":
        mapping: dict[str, str] = {}
        for lineno, line in numbered_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected emoji<TAB>phrase")
            emoji, phrase = line.split("\t", 1)
            mapping[emoji] = phrase
        return cls(mapping)

    @classmethod
    def default(cls) -> "EmojiTable":
        ref = resources.files("offgraph").joinpath("data/emoji_table.tsv")
        with resources.as_file(ref) as path:
            return cls.from_tsv(path)

    def lookup(self, cluster: str) -> str | None:
        if cluster in self.mapping:
            return self.mapping[cluster]
        stripped = "".join(c for c in cluster if c != _VS16 and c not in _SKIN_TONES)
        return self.mapping.get(stripped)


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
    out: list[str] = []
    i = 0
    n = len(text)
    while (match := _EMOJI_CHAR.search(text, i)) is not None:
        start = match.start()
        if start > i:
            out.append(text[i:start])
        j = start + 1
        while j < n and (text[j] == _VS16 or text[j] in _SKIN_TONES):
            j += 1
        while j < n and text[j] == _ZWJ and _EMOJI_CHAR.match(text, j + 1):
            j += 2
            while j < n and (text[j] == _VS16 or text[j] in _SKIN_TONES):
                j += 1
        phrase = table.lookup(text[start:j]) or "<emoji>"
        if out and not out[-1][-1].isspace():
            out.append(" ")
        out.append(phrase)
        if j < n and not text[j].isspace():
            out.append(" ")
        i = j
    out.append(text[i:])
    return "".join(out)


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
