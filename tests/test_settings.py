"""The repository's pytest settings: a falsified property test fails like
any other test and leaves the rest of the session reporting."""

import json
import subprocess
import sys

PAIR = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_passes():
    pass
'''


def test_falsified_property_test_leaves_the_session_reporting(tmp_path, pytestconfig):
    """Under the warning filters these tests run with, a failing @given test
    and a passing one end in the normal summary, with no INTERNALERROR."""
    filters = pytestconfig.getini("filterwarnings")
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    (tmp_path / "test_pair.py").write_text(PAIR)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1
    assert "1 failed, 1 passed" in out.stdout
