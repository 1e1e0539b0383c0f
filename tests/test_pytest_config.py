"""The repository's pytest configuration reports a failing property as a failure.

hypothesis imports libcst, and with it mypy_extensions, when it reports a
falsifying example; under `error::DeprecationWarning` that import must not
turn the failure into an INTERNALERROR that stops the run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# the CI job runs every process under this setting
CI_WARNINGS = "error::RuntimeWarning,error::DeprecationWarning"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
"""


@pytest.mark.parametrize("pythonwarnings", [None, CI_WARNINGS])
def test_failing_property_fails_without_internal_error(tmp_path, pythonwarnings):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    if pythonwarnings:
        env["PYTHONWARNINGS"] = pythonwarnings
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
