"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run pytest -s to see them).  Tolerances are fixed here,
not configurable."""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from hfspec.analysis import fit_peaks
from hfspec.cli import main
from hfspec.fitting import (
    CF_AJ_PARAM_NAMES,
    fit_b,
    fit_cf_aj,
    fit_refractive,
)
from hfspec.hamiltonian import (
    CFParameters,
    HyperfineConstants,
    cf_levels,
    hf_levels_exact,
)
from hfspec.perturbation import delta_full, lambda_from_exact, lambda_from_model
from hfspec.spectra import PeakModel, Spectrum
from hfspec.angular import build_jplus, build_jz

from conftest import expected_levels, synthetic_cf_dataset

A_J_REF = 0.02703


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_01_level_table_reproduction(cf_params, system):
    start = time.perf_counter()
    levels = cf_levels(cf_params, system)
    elapsed = time.perf_counter() - start

    expected = expected_levels()
    assert len(levels) == 13
    worst_low = worst_high = worst_moment = 0.0
    for lv, ref in zip(levels, expected):
        assert lv.n == ref["n"]
        assert lv.irrep == ref["irrep"], f"level {lv.n} irrep"
        dev = abs(lv.energy - ref["energy"])
        if ref["energy"] < 100.0:
            assert dev < 1.0, f"level {lv.n} energy"
            worst_low = max(worst_low, dev)
        else:
            assert dev < 5.0, f"level {lv.n} energy"
            worst_high = max(worst_high, dev)
        if ref["jz"] is not None:
            momdev = abs(lv.jz_expect - ref["jz"])
            assert momdev < 0.10, f"level {lv.n} moment"
            worst_moment = max(worst_moment, momdev)
    assert elapsed < 1.0
    report(
        1,
        f"13 levels, irreps exact, max |dE| {worst_low:.3f} (<100 cm-1) / "
        f"{worst_high:.3f} (above), max |d<Jz>| {worst_moment:.3f}, "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_first_order_spacing(levels, measured_by_family):
    spacing = A_J_REF * levels[0].jz_expect
    assert spacing == pytest.approx(0.1460, abs=0.001)
    ladder = [r.value for r in measured_by_family[(1, 2)]]
    mean_measured = np.mean(np.abs(np.diff(ladder)))
    assert spacing == pytest.approx(mean_measured, abs=0.003)
    report(
        2,
        f"a_j <Jz> = {spacing:.4f} cm-1 vs 0.1460 and measured mean "
        f"spacing {mean_measured:.4f}",
    )


def test_criterion_03_centroid_consistency(measured_by_family):
    expected = expected_levels()
    mean12 = np.mean([r.value for r in measured_by_family[(1, 2)]])
    mean13 = np.mean([r.value for r in measured_by_family[(1, 3)]])
    assert mean12 == pytest.approx(expected[1]["energy"], abs=0.02)
    assert mean13 == pytest.approx(expected[2]["energy"], abs=0.02)
    report(
        3,
        f"centroids {mean12:.3f} vs E2 = {expected[1]['energy']:.2f}, "
        f"{mean13:.3f} vs E3 = {expected[2]['energy']:.2f}",
    )


def test_criterion_04_lambda_from_model(cf_params, levels, hyperfine, system):
    lam = lambda_from_model(levels, hyperfine, system)
    targets = (0.0024, -0.0040, 0.0017)
    for value, target in zip(lam.as_tuple(), targets):
        assert np.sign(value) == np.sign(target)
        assert value == pytest.approx(target, rel=0.25)
    exact = lambda_from_exact(cf_params, hyperfine, system)
    for a, b in zip(lam.as_tuple(), exact.as_tuple()):
        assert a == pytest.approx(b, rel=0.05)
    report(
        4,
        "lambda = ({:.4g}, {:.4g}, {:.4g}) cm-1, exact-diagonalization "
        "({:.4g}, {:.4g}, {:.4g})".format(*lam.as_tuple(), *exact.as_tuple()),
    )


def test_criterion_05_lambda_from_data():
    result = CliRunner().invoke(main, ["analyze", "--format", "json"])
    assert result.exit_code == 0
    out = json.loads(result.output)
    lam1 = out["lambda"]["lambda1"]["value_cm1"]
    lam2 = out["lambda"]["lambda2"]["value_cm1"]
    lam3 = out["lambda"]["lambda3"]["value_cm1"]
    s2 = abs(out["slopes"]["D2"]["s_reported"])
    s3 = abs(out["slopes"]["D3"]["s_reported"])
    assert 1.6e-3 <= lam1 <= 2.4e-3
    assert 6.2e-3 <= s2 <= 9.0e-3
    assert 3e-4 <= s3 <= 9e-4
    assert lam2 < 0 and 1e-4 < abs(lam2) < 1e-2
    assert lam3 > 0 and 1e-4 < abs(lam3) < 1e-2
    report(
        5,
        f"lambda1 = {lam1:.3e}, |s2| = {s2:.2e}, |s3| = {s3:.2e}, "
        f"lambda2 = {lam2:.2e} (<0), lambda3 = {lam3:.2e} (>0)",
    )


def test_criterion_06_perturbation_convergence_order(cf_params, levels, system):
    start = time.perf_counter()
    scaled_error = {}
    for alpha in (1.0, 0.5, 0.1):
        hf = HyperfineConstants(alpha * A_J_REF, 0.0)
        exact = {
            (h.n, h.sigma, h.m_z): h.correction
            for h in hf_levels_exact(cf_params, hf, system)
        }
        worst = 0.0
        for n in (1, 2, 3):
            sigmas = (+1, -1) if levels[n - 1].degeneracy == 2 else (+1,)
            for sigma in sigmas:
                for m in system.m_i:
                    pert = delta_full(n, sigma, m, levels, hf, system)
                    worst = max(worst, abs(pert - exact[(n, sigma, m)]))
        scaled_error[alpha] = worst
    elapsed = time.perf_counter() - start

    ratios = [scaled_error[a] / a**3 for a in (1.0, 0.5, 0.1)]
    assert max(ratios) / min(ratios) < 3.0
    assert scaled_error[0.1] < 1e-4
    assert elapsed < 5.0
    report(
        6,
        f"max|pert - exact| / alpha^3 = "
        f"{ratios[0]:.2e} / {ratios[1]:.2e} / {ratios[2]:.2e} "
        f"(alpha = 1, 1/2, 1/10); at alpha = 1/10: "
        f"{scaled_error[0.1]:.1e} < 1e-4; {elapsed:.1f} s",
    )


def test_criterion_07_kramers_degeneracy(hf_levels):
    energies = np.sort([h.energy for h in hf_levels])
    assert len(energies) == 136
    worst = float(np.max(np.abs(energies[0::2] - energies[1::2])))
    assert worst < 1e-9
    report(7, f"68 Kramers pairs, max intra-pair gap {worst:.1e} cm-1")


def test_criterion_08_selection_rules(levels, system):
    jz = build_jz(system.j).matrix
    jp = build_jplus(system.j).matrix
    sectors = np.mod(system.m_j, 4).astype(int)
    states = []
    for lv in levels:
        for sigma in lv.branches():
            vec = lv.vectors[sigma]
            weights = [np.sum(np.abs(vec[sectors == s]) ** 2) for s in range(4)]
            states.append((int(np.argmax(weights)), vec))
    worst = 0.0
    for sa, va in states:
        for sb, vb in states:
            if sa != sb:
                worst = max(worst, abs(np.vdot(va, jz @ vb)))
            if sa != (sb + 1) % 4:
                worst = max(worst, abs(np.vdot(va, jp @ vb)))
    assert worst < 1e-10
    report(8, f"largest forbidden matrix element {worst:.1e}")


def test_criterion_09_fit_round_trips(cf_params, system, measured):
    start = time.perf_counter()

    # (a) noiseless recovery to 1e-6 relative from a 5% perturbed start
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system)
    start_params = CFParameters(
        *(getattr(cf_params, n) * 1.05 for n in ("b20", "b40", "b44", "b60", "b64", "b6m4"))
    )
    result_a = fit_cf_aj(dataset, start_params, A_J_REF * 1.05, system)
    truth = {n: getattr(cf_params, n) for n in CF_AJ_PARAM_NAMES[:-1]}
    truth["a_j"] = A_J_REF
    worst_rel = 0.0
    for name, value in result_a.params.items():
        target = truth[name]
        if target == 0.0:
            assert abs(value) < 1e-8
        else:
            rel = abs(value - target) / abs(target)
            assert rel < 1e-6, name
            worst_rel = max(worst_rel, rel)

    # (b) noisy recovery within 3 reported sigma, sane chi2
    rng = np.random.default_rng(20260808)
    noisy = synthetic_cf_dataset(cf_params, A_J_REF, system, rng=rng)
    result_b = fit_cf_aj(noisy, start_params, A_J_REF * 1.05, system)
    for name in result_b.names:
        error = result_b.param_errors[name]
        if np.isinf(error):
            continue
        assert abs(result_b.params[name] - truth[name]) < 3 * error, name
    chi2_dof = result_b.chi2 / result_b.dof
    assert 0.3 < chi2_dof < 3.0

    # (c) quadrupolar constant from the bundled measured lines
    result_c = fit_b(measured, cf_params, A_J_REF, system, initial_b=0.04)
    b_fit = result_c.params["b_quad"]
    assert 0.02 < b_fit < 0.06

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        9,
        f"(a) noiseless worst rel err {worst_rel:.1e}; (b) all pulls < 3 sigma, "
        f"chi2/dof = {chi2_dof:.2f}; (c) b_quad = {b_fit:.3f} cm-1; "
        f"{elapsed:.1f} s total",
    )


def test_criterion_10_isotope_doublet_fit():
    grid = np.arange(23.48, 23.58, 0.0005)
    signal = (
        PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
        + PeakModel("gaussian", 23.527 + 0.0098, 0.0090, 0.33).profile(grid)
    )
    peaks, _ = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
    split_err = abs((peaks[1].center - peaks[0].center) - 0.0098)
    fwhm_err = max(abs(p.fwhm - 0.0090) for p in peaks)
    assert split_err < 0.0004
    assert fwhm_err < 0.0002
    report(
        10,
        f"splitting error {split_err:.1e} cm-1, FWHM error {fwhm_err:.1e} cm-1",
    )


def test_criterion_11_refractive_round_trip():
    nu = np.linspace(10.0, 70.0, 40)
    worst = 0.0
    for a, nu0, c in ((-11.1, 110.0, 2.62), (-13.5, 115.0, 2.62)):
        data = np.column_stack([nu, a / (nu - nu0) + c])
        result = fit_refractive(data)
        for name, target in (("a", a), ("nu0", nu0), ("c", c)):
            rel = abs(result.params[name] - target) / abs(target)
            assert rel < 1e-6, name
            worst = max(worst, rel)
    report(11, f"both parameter sets recovered, worst relative error {worst:.1e}")
