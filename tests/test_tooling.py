"""The test runner's own settings: what ``pyproject.toml`` makes of a failing
test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_given_test(n):
    assert n < 0


def test_a_passing_test_after_it():
    assert True
'''


def test_failing_given_test_fails_the_run(tmp_path):
    # hypothesis' failure report imports a third-party module that warns as
    # it loads; were that warning an error, pytest would exit 3 at the
    # failing test and run no test after it
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
