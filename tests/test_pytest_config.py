"""The suite's own pytest configuration.

``filterwarnings`` turns every warning into an error.  While it reports a
failing ``@given`` test the hypothesis plugin imports libcst, which raises a
``DeprecationWarning`` from mypy_extensions; unless ``pyproject.toml``
ignores that one message, pytest stops with ``INTERNALERROR``, lists no
failure and runs no later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_AND_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_sample.py"],
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
