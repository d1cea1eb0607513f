"""The numpy assignment solver behind hyperfine labelling, checked against scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hfspec
import hfspec.hamiltonian as hamiltonian
from hfspec.hamiltonian import CFParameters, HyperfineConstants, hf_levels_exact, linear_sum_assignment

assignment_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def oracle():
    return pytest.importorskip("scipy.optimize").linear_sum_assignment


def _is_permutation(rows, cols, n):
    return np.array_equal(rows, np.arange(n)) and np.array_equal(np.sort(cols), np.arange(n))


@assignment_settings
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_real_matrices_match_scipy(oracle, n, seed, log_scale):
    cost = 10.0**log_scale * np.random.default_rng(seed).standard_normal((n, n))
    rows, cols = linear_sum_assignment(cost)
    ref_rows, ref_cols = oracle(cost)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(cols, ref_cols)


@assignment_settings
@given(st.integers(1, 8).flatmap(lambda n: arrays(np.int64, (n, n), elements=st.integers(0, 3))))
def test_integer_matrices_with_ties_reach_scipy_optimum(oracle, cost):
    n = len(cost)
    rows, cols = linear_sum_assignment(cost)
    assert _is_permutation(rows, cols, n)
    assert cost[rows, cols].sum() == cost[oracle(cost)].sum()


def test_conflicting_first_choices_augment():
    # both rows want column 0; the optimum gives it to row 1
    rows, cols = linear_sum_assignment(np.array([[1.0, 2.0], [1.0, 3.0]]))
    assert rows.tolist() == [0, 1]
    assert cols.tolist() == [1, 0]


@pytest.mark.parametrize(
    "cost", [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4), np.array([[0.0, np.nan], [1.0, 2.0]])]
)
def test_rejects_bad_cost(cost):
    with pytest.raises(ValueError):
        linear_sum_assignment(cost)


def _scan_points():
    """The reference, and seeded draws of the CF coefficients and a_j within about 5 %."""
    ref, hf = hfspec.CF_HO_LIYF4, hfspec.HYPERFINE_HO_LIYF4
    points = [(ref, hf)]
    rng = np.random.default_rng(5)
    names = ("b20", "b40", "b44", "b60", "b64")
    for _ in range(6):
        factors = 1.0 + 0.05 * rng.standard_normal(len(names) + 1)
        cf = CFParameters(b6m4=ref.b6m4, b4m4=ref.b4m4,
                          **{n: getattr(ref, n) * f for n, f in zip(names, factors)})
        points.append((cf, HyperfineConstants(hf.a_j * factors[-1], rng.normal(0.04, 0.004))))
    return points


@pytest.mark.parametrize("cf, hf", _scan_points())
def test_labels_equal_those_from_scipy_assignment(oracle, monkeypatch, cf, hf, system):
    ours = hf_levels_exact(cf, hf, system)
    monkeypatch.setattr(hamiltonian, "linear_sum_assignment", oracle)
    hamiltonian._hf_levels.cache_clear()  # else the second call reads the first's result
    assert hf_levels_exact(cf, hf, system) == ours


def test_cli_import_leaves_scipy_out():
    src = str(Path(hfspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hfspec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
