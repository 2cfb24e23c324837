"""The suite's own pytest settings must let every test run and report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_failing_property_is_a_test_failure_not_an_internal_error(tmp_path):
    # With warnings as errors, a deprecation warning raised while Hypothesis
    # reports a failure once ended the whole run with INTERNALERROR (exit 3),
    # hiding every test collected after it.
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
