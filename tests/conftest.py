import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("offgraph", derandomize=True, database=None, deadline=None)
settings.load_profile("offgraph")

import offgraph.attention  # noqa: E402


@pytest.fixture
def attention_probs(monkeypatch):
    """Every attention probability matrix computed while the test runs.

    Wraps the softmax that ``multi_head_attention`` calls, so each call adds
    one [S, S] matrix per sequence and head (before dropout), in call order.
    """
    captured = []
    softmax = offgraph.attention.softmax

    def keep(*args, **kwargs):
        probs = softmax(*args, **kwargs)
        captured.extend(probs.data.reshape((-1,) + probs.shape[-2:]))
        return probs

    monkeypatch.setattr(offgraph.attention, "softmax", keep)
    return captured
