"""Every module, test and benchmark script parses as Python 3.10, the oldest
version CI runs (its 3.10 leg runs ``perfbench/run.py --smoke``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"), *ROOT.glob("perfbench/*.py")]
)


def test_files_found():
    assert any(p.name == "simlab.py" for p in FILES)
    assert any(p.name == "test_source.py" for p in FILES)
    assert any(p.name == "run.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
