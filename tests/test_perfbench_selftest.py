"""perfbench's self-test passes against the program in this checkout.

It runs every workload at its tiny size, traced and untraced, and checks the
outputs against perfbench's own oracles, so a change that breaks what the
benchmark measures fails here rather than when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.slow
def test_perfbench_self_test_passes():
    done = subprocess.run([sys.executable, str(RUN), "--self-test"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("self-test ")]
    assert len(lines) == 6, done.stdout
    assert all(line.split()[3] == "ok" for line in lines), done.stdout
