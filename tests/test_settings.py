"""The suite's own settings in `pyproject.toml`.

Every warning is an error, except the `DeprecationWarning` that the
hypothesis plugin raises, where `mypy_extensions` is installed, while it
reports a failing property.  As an error it ends the run in
`INTERNALERROR`, and the falsifying example is never printed.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr  # 3 is an internal error
    assert "Falsifying example" in done.stdout, done.stdout
