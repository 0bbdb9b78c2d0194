import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_TRIVIAL = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_trivial():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """Under the repo's warning filters, a failing @given test fails alone:
    the tests after it still run and report."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_TRIVIAL)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
