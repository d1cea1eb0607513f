"""Hyperfine labelling by majority energy cluster, checked against scipy's optimal assignment."""

import os
import subprocess
import sys
from pathlib import Path

import model_oracle
import numpy as np
import pytest

import hfspec
from hfspec.hamiltonian import (CFParameters, HyperfineConstants, LabelingError, hf_levels_exact,
                                linear_sum_assignment)


@pytest.mark.parametrize("overlaps, cols", [([[0.7, 0.3], [0.3, 0.7]], [0, 1]), ([[0.3, 0.7], [0.7, 0.3]], [1, 0])],
                         ids=["ascending", "descending"])
def test_a_kramers_pair_takes_its_better_pairing(overlaps, cols):
    got, weight = linear_sum_assignment(np.array(overlaps), np.array([0]))
    assert got.tolist() == cols
    assert weight.tolist() == [1.0, 1.0]


def test_a_cluster_that_is_the_majority_of_surplus_labels_is_refused():
    # labels 0-2 hold 0.6 each on the two-member cluster {0, 1}, label 3 holds 0.8 on {2, 3}
    overlaps = np.array([[0.3, 0.3, 0.2, 0.2]] * 3 + [[0.1, 0.1, 0.4, 0.4]])
    with pytest.raises(LabelingError, match="cluster of 2 eigenstates is the majority cluster of 3 labels"):
        linear_sum_assignment(overlaps, np.array([0, 2]))


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
def test_labels_equal_those_from_scipy_assignment(cf, hf, system):
    assert hf_levels_exact(cf, hf, system) == model_oracle.hf_levels(cf, hf, system)


def test_cli_import_leaves_scipy_out():
    """Neither scipy nor concurrent.futures (fit_b's worker pool, imported
    where fit_b runs) is loaded by ``import hfspec.cli``."""
    src = str(Path(hfspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hfspec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
