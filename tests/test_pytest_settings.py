"""The project's pytest settings report a failing property test as a failure."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # Reporting a failing example imports a module that warns; under
    # filterwarnings = ["error"] that warning once ended the run with
    # INTERNALERROR. A fresh process, so the module is imported for the first time.
    (tmp_path / "test_property.py").write_text(PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
