"""The repository's pytest settings report every test of a session.

pyproject.toml turns each warning into an error. Hypothesis's failure
report raises a DeprecationWarning inside a pytest hook, where an error ends
the whole session in INTERNALERROR and the tests after the failing one
never run; the settings ignore that one warning and no other.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

pytestmark = pytest.mark.skipif(not PYPROJECT.is_file(), reason="pyproject.toml is absent")


def _run_pytest(tmp_path, source):
    path = tmp_path / "test_sample.py"
    path.write_text(source, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return done.stdout + done.stderr


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    out = _run_pytest(tmp_path, (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_passes():\n"
        "    assert True\n"
    ))
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_any_other_warning_still_fails(tmp_path):
    out = _run_pytest(tmp_path, (
        "import warnings\n\n\n"
        "def test_warns():\n"
        "    warnings.warn('some deprecation', DeprecationWarning)\n\n\n"
        "def test_passes():\n"
        "    assert True\n"
    ))
    assert "1 failed, 1 passed" in out
