"""The repo's pytest settings: warnings are errors, yet a failing
hypothesis test is reported as one failure and the session goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
