import csv
from pathlib import Path

import numpy as np
import pytest

from hfspec import (
    CF_HO_LIYF4,
    HO_LIYF4,
    HYPERFINE_HO_LIYF4,
    cf_levels,
    hamiltonian,
    hf_levels_exact,
)
from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, bundled_path
from hfspec.datasets import read_dataset


@pytest.fixture(autouse=True)
def cold_solves():
    """Start every test with nothing remembered by the crystal-field and
    electron-nuclear solves, so a test counting solves or swapping a solver
    sees its own calls."""
    hamiltonian._cf_point.cache_clear()
    hamiltonian._hf_levels.cache_clear()


@pytest.fixture(scope="session")
def system():
    return HO_LIYF4


@pytest.fixture(scope="session")
def cf_params():
    return CF_HO_LIYF4


@pytest.fixture(scope="session")
def hyperfine():
    return HYPERFINE_HO_LIYF4


@pytest.fixture(scope="session")
def levels(cf_params, system):
    return cf_levels(cf_params, system)


@pytest.fixture(scope="session")
def hf_levels(cf_params, hyperfine, system):
    return hf_levels_exact(cf_params, hyperfine, system)


@pytest.fixture(scope="session")
def measured():
    return read_dataset(bundled_path(MEASURED_LINES))


def expected_levels() -> list[dict]:
    """The published level table ``tests/data/cf_levels_expected.csv``:
    n, energy, irrep and jz (None for the singlets) per level."""
    with open(Path(__file__).with_name("data") / "cf_levels_expected.csv", encoding="utf-8", newline="") as handle:
        rows = csv.DictReader(line for line in handle if not line.startswith("#"))
        return [
            {"n": int(r["n"]), "energy": float(r["energy_cm1"]), "irrep": r["irrep"],
             "jz": float(r["jz"]) if r["jz"] else None}
            for r in rows
        ]


@pytest.fixture(scope="session")
def measured_by_family(measured):
    out = {}
    for row in measured.rows:
        out.setdefault((row.n_init, row.n_final), []).append(row)
    for rows in out.values():
        rows.sort(key=lambda r: r.m_z)
    return out


@pytest.fixture(scope="session")
def m_grid(system):
    return system.m_i


#: edits of the bundled reference.ini: a complex H_CF (b4m4 = 0.01,
#: b6m4 = 1.68e-4) and an uncoupled model (a_j = b_quad = 0)
EDITED_CONFIGS = {
    "complex": (("b4m4 = 0.0", "b4m4 = 0.01"), ("b6m4 = 0.0", "b6m4 = 1.68e-4")),
    "uncoupled": (("a_j = 0.02703", "a_j = 0"), ("b_quad = 0.04", "b_quad = 0")),
}


def edited_config(path, name):
    """Write the bundled reference.ini with the EDITED_CONFIGS edits ``name``
    to ``path``; returns the path as a string."""
    text = bundled_path(REFERENCE_CONFIG).read_text()
    for old, new in EDITED_CONFIGS[name]:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    return str(path)


def synthetic_cf_dataset(cf_params, a_j, system, rng=None):
    """First-order-model dataset: three hyperfine families, averaged energies
    for the higher levels, and moment pseudo-rows for the two lowest doublets.

    With rng given, Gaussian noise at each row's sigma is added (measurement
    uncertainties mirror the bundled dataset's per-family values).
    """
    from hfspec.fitting import ObservationRow, TransitionDataset, predict_lines_first_order

    rows = []
    for nf, sigma in ((2, 0.01), (3, 0.001)):
        for m in system.m_i:
            rows.append(ObservationRow("hf", 1, nf, float(m), 0.0, sigma))
    for m in system.m_i:
        rows.append(ObservationRow("hf", 2, 3, float(m), 0.0, 0.003))
    for n in range(4, 14):
        rows.append(ObservationRow("cf", 1, n, None, 0.0, 0.05))
    rows.append(ObservationRow("moment", 1, None, None, 0.0, 0.02))
    rows.append(ObservationRow("moment", 6, None, None, 0.0, 0.02))

    truth = predict_lines_first_order(cf_params, a_j, rows, system)
    values = truth.copy()
    if rng is not None:
        values = values + rng.normal(0.0, [r.sigma for r in rows])
    rows = [
        ObservationRow(r.kind, r.n_init, r.n_final, r.m_z, float(v), r.sigma)
        for r, v in zip(rows, values)
    ]
    return TransitionDataset(rows)


def restricted_three_level_deltas(levels, a_j, system):
    """Independent oracle: the three-level ladder model evaluated literally.

    Ground-branch correction from its repulsion off the two singlets, singlet
    corrections from antisymmetry plus their mutual J_z coupling; no
    quadrupole.  Written directly from the closed-form matrix elements so it
    shares no code path with the perturbation module.
    """
    from hfspec.angular import build_jminus, build_jz

    j = system.j
    jm = build_jminus(j).matrix
    jz = build_jz(j).matrix
    lv1, lv2, lv3 = levels[0], levels[1], levels[2]
    ii1 = system.i * (system.i + 1)
    jz1 = lv1.jz_expect
    w12 = abs(np.vdot(lv2.vectors[+1], jm @ lv1.vectors[+1])) ** 2
    w13 = abs(np.vdot(lv3.vectors[+1], jm @ lv1.vectors[+1])) ** 2
    z23 = abs(np.vdot(lv3.vectors[+1], jz @ lv2.vectors[+1])) ** 2

    def k11(m):
        return a_j * jz1 * m

    def k12(m):
        return a_j**2 / 4 * w12 / (lv1.energy - lv2.energy) * (ii1 - m * (m + 1))

    def k13(m):
        return a_j**2 / 4 * w13 / (lv1.energy - lv3.energy) * (ii1 - m * (m + 1))

    def k23(m):
        return a_j**2 * z23 / (lv2.energy - lv3.energy) * m**2

    d1 = {m: k11(m) + k12(m) + k13(m) for m in system.m_i}
    d2 = {m: k23(m) - 2 * k12(m) for m in system.m_i}
    d3 = {m: -k23(m) - 2 * k13(m) for m in system.m_i}
    return d1, d2, d3
