"""The names the benchmark harness imports from hfspec all exist.

``perfbench/`` imports hfspec at run time only, so a name dropped from the
package namespace (or from one of its modules) would otherwise surface only
when the slow harness self-check runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names():
    """(module, name) for every ``from hfspec[.module] import name`` in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "hfspec" or node.module.startswith("hfspec."):
                    found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


IMPORTED = _imported_names()


def test_perfbench_imports_names_from_the_package():
    assert any(module == "hfspec" for module, _ in IMPORTED)


@pytest.mark.parametrize("module,name", IMPORTED)
def test_perfbench_import_resolves(module, name):
    # as ``from module import name`` does, fall back to a submodule of that name
    found = hasattr(importlib.import_module(module), name) or importlib.util.find_spec(f"{module}.{name}")
    assert found, f"from {module} import {name}"
