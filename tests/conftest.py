import sys
import threading
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


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started alive, and name the thread.

    A helper thread that missed its stop signal would otherwise wait on its
    queue unnoticed until the process exits (or, were it no daemon, keep the
    process from exiting, with nothing printed).
    """
    before = set(threading.enumerate())
    yield
    alive = [t for t in threading.enumerate() if t not in before]
    for thread in alive:
        thread.join(timeout=1.0)  # one that is on its way out is no leak
    alive = [t.name for t in alive if t.is_alive()]
    if alive:
        pytest.fail(f"threads left alive: {', '.join(alive)}")
