"""The suite's own pytest settings: a failing property test fails alone."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # with filterwarnings = error, a deprecation warning raised while the
    # hypothesis plugin reports a failing @given test became an
    # INTERNALERROR that ended the run before the next test
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert "INTERNALERROR" not in out, out
