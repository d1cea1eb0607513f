"""The names the benchmark harness imports from hfspec all exist, and
``datasets`` imports nothing from the fit layer.

``perfbench/`` imports hfspec at run time only, so a name dropped from the
package namespace (or from one of its modules) would otherwise surface only
when the slow harness self-check runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_perfbench_tracer_installs_on_the_package():
    """The harness tracer wraps hfspec functions by name, among them
    ``hamiltonian.linear_sum_assignment``, which a labelled solve calls once;
    a wrapped name that hfspec no longer has fails here, not only in the
    harness self-check."""
    import hfspec
    from hfspec import hamiltonian

    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(hamiltonian))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        hamiltonian._hf_levels.cache_clear()
        hfspec.hf_levels_exact(hfspec.CF_HO_LIYF4, hfspec.HYPERFINE_HO_LIYF4, hfspec.HO_LIYF4)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("linear_sum_assignment") == 1
    assert vars(hamiltonian) == before


def test_datasets_imports_nothing_from_the_fit_layer():
    """The dataset rows and DatasetError are defined in ``datasets``, which
    reads files without the fit engine: neither ``from .fitting import ...``,
    ``from . import fitting`` nor any absolute import of hfspec.fitting."""
    tree = ast.parse((ROOT / "src" / "hfspec" / "datasets.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import in datasets.py is relative to the hfspec package
            module = ".".join(filter(None, ["hfspec" if node.level else None, node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if name == "hfspec.fitting" or name.startswith("hfspec.fitting.")]
