"""The package's source keeps to the grammar of the Python floor that
pyproject.toml declares.  This checks syntax only: ``ast.parse`` with a
``feature_version`` refuses newer grammar, such as an ``except*`` clause,
not newer library calls."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: the oldest Python that pyproject.toml's requires-python admits
FLOOR = (3, 10)


def test_floor_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == tuple(map(str, FLOOR))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hfspec").glob("*.py")), ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
