"""Text normalization pipeline."""

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgraph.preprocess import (
    _EMOJI_RANGES,
    _SKIN_TONES,
    _VS16,
    _ZWJ,
    EmojiTable,
    RawTweet,
    normalize_entities,
    preprocess,
    preprocess_text,
    replace_emojis,
    replace_urls,
    segment_hashtags,
)


@pytest.fixture(scope="module")
def table():
    return EmojiTable.default()


def test_default_table_is_large_and_clean(table):
    assert len(table) >= 100
    for phrase in table.mapping.values():
        assert all(c.isalpha() or c == " " for c in phrase)


def test_raw_tweet_validation():
    with pytest.raises(ValueError):
        RawTweet("t1", "u1", "x", 2)
    with pytest.raises(ValueError):
        RawTweet("t1", "", "x", 0)


# -- URLs -----------------------------------------------------------------


def test_url_shortlink_becomes_http():
    assert (
        replace_urls("Refinancing during Covid-19. https://t.co/EzjVxwoLq7")
        == "Refinancing during Covid-19. http"
    )


def test_url_free_text_unchanged():
    text = "no links here, just words."
    assert replace_urls(text) == text


def test_two_urls_both_replaced():
    assert replace_urls("a http://x.com b https://y.org") == "a http b http"


def test_bare_tco_shortlink():
    assert replace_urls("see t.co/abc123 now") == "see http now"


# -- hashtags ---------------------------------------------------------------


def test_hashtag_camel_case():
    assert segment_hashtags("#SomeHashtagText") == "Some Hashtag Text"


def test_hashtag_single_word():
    assert segment_hashtags("#covid") == "covid"


def test_hashtag_digit_boundaries():
    assert segment_hashtags("#Trump2024Now") == "Trump 2024 Now"


def test_hashtag_acronym_run():
    assert segment_hashtags("#USAToday") == "USA Today"


def test_hashtag_inside_sentence():
    assert segment_hashtags("big #BreakingNews today") == "big Breaking News today"


# -- entities ---------------------------------------------------------------


def test_mention_to_user():
    assert normalize_entities("@Kevin") == "<user>"


def test_entities_identity_when_absent():
    text = "plain words only"
    assert normalize_entities(text) == text


def test_mention_requires_boundary_and_money():
    assert normalize_entities("meet me@5pm, pay $10") == "meet me@5pm, pay <money>"


def test_email_time_date():
    assert normalize_entities("mail a.b@x-corp.com at 5:30pm on 03/05/2021") == (
        "mail <email> at <time> on <date>"
    )


def test_standalone_time():
    assert normalize_entities("see you at 5pm") == "see you at <time>"


# -- emojis -----------------------------------------------------------------


def test_emoji_table_row(table):
    assert replace_emojis("good \U0001F600", table) == "good grinning face"


def test_emoji_free_text_unchanged(table):
    text = "nothing  special here"
    assert replace_emojis(text, table) == text


def test_unknown_emoji_fallback(table):
    # tag characters block is not in the shipped table
    assert replace_emojis("x \U0001FAFF", table) == "x <emoji>"


def test_emoji_adjacent_words_are_padded(table):
    assert replace_emojis("good\U0001F600bad", table) == "good grinning face bad"


def test_emoji_variation_selector_stripped(table):
    assert replace_emojis("love ❤️", table) == "love red heart"


def _replace_emojis_per_character(text, table):
    """Slow reference for ``replace_emojis``: tests every character against every code-point range."""

    def is_emoji(ch):
        return any(lo <= ord(ch) <= hi for lo, hi in _EMOJI_RANGES)

    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if not is_emoji(ch):
            out.append(ch)
            i += 1
            continue
        j = i + 1
        while j < n and (text[j] == _VS16 or text[j] in _SKIN_TONES):
            j += 1
        while j < n and text[j] == _ZWJ and j + 1 < n and is_emoji(text[j + 1]):
            j += 2
            while j < n and (text[j] == _VS16 or text[j] in _SKIN_TONES):
                j += 1
        phrase = table.lookup(text[i:j]) or "<emoji>"
        if out and not out[-1][-1].isspace():
            out.append(" ")
        out.append(phrase)
        if j < n and not text[j].isspace():
            out.append(" ")
        i = j
    return "".join(out)


_TABLE = EmojiTable.default()
# Words, combining marks, mapped and unmapped emoji, and the first and last
# code point of every range together with their outside neighbours.
_EMOJI_PIECES = (
    ["hi", "x", " ", "  ", "\n", _VS16, _ZWJ, "\U0001FAFF", "\U0001F1FA\U0001F1F8"]
    + sorted(_SKIN_TONES)[:2]
    + sorted(_TABLE.mapping)[:: max(1, len(_TABLE) // 12)]
    + [chr(cp) for lo, hi in _EMOJI_RANGES for cp in (lo - 1, lo, hi, hi + 1)]
)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_EMOJI_PIECES), st.characters()), max_size=16).map("".join))
def test_emoji_scan_matches_per_character_reference(text):
    assert replace_emojis(text, _TABLE) == _replace_emojis_per_character(text, _TABLE)


def test_bad_phrase_rejected():
    for phrase in ("has-hyphen", "", "  "):  # a phrase of spaces alone would delete its emoji
        with pytest.raises(ValueError, match="letters and spaces"):
            EmojiTable({"x": phrase})


# -- full pipeline -----------------------------------------------------------


def test_pipeline_composition(table):
    raw = RawTweet(
        "t1",
        "u1",
        "@Kevin check #SomeHashtagText \U0001F600 https://t.co/EzjVxwoLq7",
        0,
    )
    assert preprocess(raw, table).text == "<user> check Some Hashtag Text grinning face http"


_PIPELINE_PIECES = ["@a", "#BigDay", "#x2", "http://x.y", "t.co/zz", "$3", "5pm", "a.b@c.de", "\U0001F525"] + _EMOJI_PIECES


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_PIPELINE_PIECES), st.characters()), max_size=16).map(" ".join))
def test_pipeline_idempotent(table, text):
    once = preprocess(RawTweet("t1", "u1", text, 1), table)
    assert preprocess(once, table) == once


def test_pipeline_empty_text(table):
    assert preprocess(RawTweet("t", "u", "", 0), table).text == ""


def test_pipeline_passes_ids_and_label(table):
    raw = RawTweet("t9", "u9", "hello \U0001F600", 1)
    out = preprocess(raw, table)
    assert (out.tweet_id, out.user_id, out.label) == ("t9", "u9", 1)


def test_pipeline_output_invariants_random_texts(table):
    rng = np.random.default_rng(0)
    emojis = list(table.mapping)[:20] + ["\U0001FAFF"]
    words = ["hello", "world", "#CamelCase", "@user1", "http://a.io/x?q=1", "t.co/zz", "$5", "5pm", "a.b@c.de"]
    pieces = words + emojis + list(string.punctuation)
    for _ in range(100):
        text = " ".join(rng.choice(pieces, size=rng.integers(1, 12)))
        out = preprocess_text(text, table)
        assert preprocess_text(out, table) == out
        assert not re.search(r"[A-Za-z][A-Za-z0-9+.-]*://", out)
        assert "t.co/" not in out
        assert not re.search(r"#[A-Za-z0-9_]+", out)
        assert not re.search(r"(?<!\w)@\w+", out)
