"""The quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# 05 and 06 train full models (tens of seconds) and stay out of the suite.
QUICK = [
    "01_autodiff_and_optimizer.py",
    "02_text_preprocessing.py",
    "03_social_graph_features.py",
    "04_graph_attention.py",
]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    src = str(DEMOS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
