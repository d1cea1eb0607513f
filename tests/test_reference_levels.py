"""hfspec's crystal-field levels against the 30-digit reference of
``mp_reference``, whose operators are built without ``hfspec.angular``.

The reference decides a printed digit: every number ``levels`` prints must
be its reference value correctly rounded to 8 significant digits.  A value
closer than ``BOUNDARY_GAP`` to a point where that rounding changes is
listed in ``NEAR_BOUNDARY`` instead, since float64 may round it either way.
"""

import csv
import io
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from hfspec import CF_HO_LIYF4, HO_LIYF4, cf_levels
from hfspec.angular import SUPPORTED_STEVENS, build_jminus, build_jplus, build_jz, build_stevens
from hfspec.cli import main
from hfspec.config import REFERENCE_CONFIG, bundled_path, load_config
from hfspec.hamiltonian import CFParameters

import mp_reference
from conftest import ci_config

J = 8
#: float64 entries of an operator within this fraction of its largest entry
#: of the exact value
OPERATOR_RTOL = 1e-14
#: CF energies and doublet moments within this of the reference
LEVEL_ATOL = 1e-12
#: a printed number this close (cm^-1, or bare for <J_z>) to a rounding
#: boundary of its 8 digits is listed, not asserted
BOUNDARY_GAP = 1e-13
#: (config, level n, column) of every printed number within BOUNDARY_GAP of a
#: rounding boundary; none, on the bundled and the CI complex config
NEAR_BOUNDARY: set[tuple[str, int, str]] = set()
#: configs of ``levels``: the bundled reference.ini and the CI's complex H_CF
CONFIGS = ("bundled", "complex")
#: CF levels of j = 8 in S4: four doublets among 17 states
N_LEVELS = 13


def _float_matrix(exact: list[list[mp_reference.Surd]]) -> np.ndarray:
    with mpmath.workdps(mp_reference.DPS):
        return np.array([[float(entry.mpf()) for entry in row] for row in exact])


def _assert_operator(got: np.ndarray, real, imag=None) -> None:
    want = _float_matrix(real) + (0 if imag is None else 1j * _float_matrix(imag))
    assert np.max(np.abs(got - want)) <= OPERATOR_RTOL * np.max(np.abs(want))


def test_ladder_operators_equal_the_exact_ones():
    j = Fraction(J)
    _assert_operator(build_jz(J).matrix, mp_reference.jz(j))
    _assert_operator(build_jplus(J).matrix, mp_reference.jplus(j))
    _assert_operator(build_jminus(J).matrix, mp_reference.jminus(j))


@pytest.mark.parametrize("k, q", SUPPORTED_STEVENS)
def test_stevens_operator_equals_the_exact_one(k, q):
    _assert_operator(build_stevens(k, q, J).matrix, *mp_reference.stevens(k, q, Fraction(J)))


def _seeded_point(seed: int) -> CFParameters:
    """The reference CF, each coefficient scaled by 1 + 0.05 N(0, 1), with
    b4m4 ~ 0.01 N(0, 1) and b6m4 ~ 1.68e-4 N(0, 1): a complex H_CF."""
    rng = np.random.default_rng(seed)
    values = {name: value * (1 + 0.05 * rng.standard_normal()) for name, value in CF_HO_LIYF4.items()}
    return CFParameters(**{**values, "b4m4": 0.01 * rng.standard_normal(), "b6m4": 1.68e-4 * rng.standard_normal()})


CF_POINTS = {
    "reference": CF_HO_LIYF4,
    "complex": replace(CF_HO_LIYF4, b4m4=0.01, b6m4=1.68e-4),
    **{f"seed-{seed}": _seeded_point(seed) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", CF_POINTS)
def test_cf_levels_lie_within_1e_12_of_the_reference(name):
    """Energy, irrep, degeneracy and the sigma = +1 <J_z> of every level."""
    got = cf_levels(CF_POINTS[name], HO_LIYF4)
    want = mp_reference.cf_levels(dict(CF_POINTS[name].items()), J)
    assert [(lv.irrep, lv.degeneracy) for lv in got] == [(lv.irrep, lv.degeneracy) for lv in want]
    for level, reference in zip(got, want):
        assert abs(level.energy - reference.energy) <= LEVEL_ATOL, level.n
        assert abs(level.jz_expect - (reference.jz or 0)) <= LEVEL_ATOL, level.n


def _rounded(value) -> str:
    """``value`` correctly rounded to 8 significant digits, written as
    hfspec writes a float (``f"{x:.8g}"``); "" for None."""
    if value is None:
        return ""
    with mpmath.workdps(mp_reference.DPS):
        digits = format(Decimal(mpmath.nstr(value, mp_reference.DPS)), ".8g")
    return f"{float(digits):.8g}"


def _boundary_gap(value) -> float:
    """How far ``value`` lies from the nearest value where its rounding to 8
    significant digits changes; inf for None and for 0, which prints as 0
    only when it is exactly 0."""
    if value is None or value == 0:
        return np.inf
    with mpmath.workdps(mp_reference.DPS):
        quantum = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - 7)
        return float(abs(mpmath.frac(abs(value) / quantum) - mpmath.mpf(0.5)) * quantum)


@pytest.fixture(scope="module")
def printed(tmp_path_factory):
    """{config: (rows ``levels`` prints, reference levels)}."""
    paths = {
        "bundled": str(bundled_path(REFERENCE_CONFIG)),
        "complex": ci_config(tmp_path_factory.mktemp("levels") / "complex.ini", "complex"),
    }
    out = {}
    for name, path in paths.items():
        result = CliRunner().invoke(main, ["levels", "--config", path], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        reference = mp_reference.cf_levels(dict(load_config(path).cf.items()), J)
        out[name] = list(csv.DictReader(io.StringIO(result.output))), reference
    return out


def _reference_value(level: mp_reference.Level, column: str):
    return level.energy if column == "energy_cm1" else level.jz


@pytest.mark.parametrize("config", CONFIGS)
def test_levels_prints_the_reference_labels(printed, config):
    rows, reference = printed[config]
    assert [(row["level"], row["irrep"], row["degeneracy"]) for row in rows] == [
        (f"{J}.{n}", level.irrep, str(level.degeneracy)) for n, level in enumerate(reference, 1)
    ]


def test_near_boundary_numbers_are_listed(printed):
    near = {
        (config, n, column)
        for config, (_, reference) in printed.items()
        for n, level in enumerate(reference, 1)
        for column in ("energy_cm1", "jz")
        if _boundary_gap(_reference_value(level, column)) < BOUNDARY_GAP
    }
    assert near == NEAR_BOUNDARY


#: the complex config's ground level prints as 8.5265128e-14, half the gap
#: between its doublet's two float64 eigenvalues, where the reference has 0
GROUND_OFFSET = ("complex", 1, "energy_cm1")


def _printed_numbers():
    for config in CONFIGS:
        for n in range(1, N_LEVELS + 1):
            for column in ("energy_cm1", "jz"):
                if (config, n, column) == GROUND_OFFSET:
                    reason = "the ground doublet's float64 eigenvalue gap is printed"
                    yield pytest.param(config, n, column, marks=pytest.mark.xfail(strict=True, reason=reason))
                else:
                    yield config, n, column


@pytest.mark.parametrize("config, n, column", _printed_numbers())
def test_levels_prints_the_correctly_rounded_reference(printed, config, n, column):
    """One printed number of ``levels``: the energy above the ground level,
    or the <J_z> of a doublet (blank for a singlet)."""
    if (config, n, column) in NEAR_BOUNDARY:
        pytest.skip("within BOUNDARY_GAP of a rounding boundary")
    rows, reference = printed[config]
    assert rows[n - 1][column] == _rounded(_reference_value(reference[n - 1], column))
