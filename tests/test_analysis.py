import numpy as np
import pytest

from hfspec import fitting
from hfspec.analysis import (
    DifferenceSeries,
    difference_series,
    extract_lambda1,
    extract_lambda23,
    fit_peaks,
    fit_slope,
)
from hfspec.fitting import ConvergenceError
from hfspec.perturbation import quadratic_m2_coefficient
from hfspec.spectra import PeakModel, Spectrum, TransitionLine

from conftest import restricted_three_level_deltas


def lines_from_rows(rows):
    return [
        TransitionLine(r.n_init, r.n_final, r.m_z, r.value, r.sigma) for r in rows
    ]


def synthetic_family(ni, nf, deltas_f, deltas_i, offset):
    """Lines offset + delta_f(m) - delta_i(m) on the full m ladder."""
    return [
        TransitionLine(ni, nf, m, offset + deltas_f[m] - deltas_i[m])
        for m in deltas_i
    ]


@pytest.fixture(scope="module")
def table_series(measured_by_family):
    d2 = difference_series(lines_from_rows(measured_by_family[(1, 2)]))
    d3 = difference_series(lines_from_rows(measured_by_family[(1, 3)]))
    d1 = difference_series(lines_from_rows(measured_by_family[(2, 3)]))
    return d1, d2, d3


# ---------------------------------------------------------------- differences

def test_difference_values_by_hand(table_series):
    d1, d2, d3 = table_series
    # 23.671 - 23.815 = -0.144 at m_z = -7/2
    assert d3.values[0] == pytest.approx(-0.144, abs=1e-9)
    assert d3.m_z[0] == -3.5
    # 16.450 - 16.450 = 0 at m_z = -1/2
    k = list(d1.m_z).index(-0.5)
    assert d1.values[k] == pytest.approx(0.0, abs=1e-9)
    assert all(len(s.values) == 7 for s in table_series)


def test_difference_series_family_indices(table_series):
    d1, d2, d3 = table_series
    assert (d1.which, d2.which, d3.which) == (1, 2, 3)


def test_equidistant_ladder_constant():
    lines = [TransitionLine(1, 2, m, 10.0 - 0.146 * m) for m in np.arange(-3.5, 4.5)]
    series = difference_series(lines)
    assert np.allclose(series.values, -0.146, atol=1e-12)


def test_quadratic_ladder_linear_differences():
    c = 0.0123
    lines = [TransitionLine(1, 2, m, c * m**2) for m in np.arange(-3.5, 4.5)]
    series = difference_series(lines)
    slopes = np.diff(series.values)
    assert np.allclose(slopes, 2 * c, atol=1e-12)
    assert fit_slope(series).slope == pytest.approx(2 * c, abs=1e-12)


def test_difference_series_input_validation():
    good = [TransitionLine(1, 2, m, float(m)) for m in np.arange(-3.5, 4.5)]
    with pytest.raises(ValueError, match="duplicate|ladder"):
        difference_series(good[:-1] + [good[0]])
    with pytest.raises(ValueError, match="ladder"):
        difference_series(good[:3] + good[4:])  # missing an interior rung
    with pytest.raises(ValueError, match="families"):
        difference_series(good[:-1] + [TransitionLine(1, 3, 3.5, 0.0)])
    with pytest.raises(ValueError, match="no lines supplied"):
        difference_series([])
    with pytest.raises(ValueError, match="hyperfine-resolved lines with m_z"):
        difference_series(good[:-1] + [TransitionLine(1, 2, None, 0.0)])


# --------------------------------------------------------------------- slopes

def test_table_slopes(table_series):
    d1, d2, d3 = table_series
    s2 = fit_slope(d2)
    assert abs(s2.slope) == pytest.approx(7.2e-3, abs=2e-3)
    s3 = fit_slope(d3)
    assert abs(s3.slope) == pytest.approx(6e-4, abs=3e-4)
    s1 = fit_slope(d1)
    assert s1.slope > 0  # the 2 -> 3 ladder spreads outward


def test_exact_line_zero_error():
    series = DifferenceSeries(0, np.arange(-3.5, 3.5), 2 * np.arange(-3.5, 3.5) + 1)
    fit = fit_slope(series)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.slope_err == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        fit_slope(DifferenceSeries(0, np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="degenerate"):
        fit_slope(DifferenceSeries(0, np.zeros(5), np.arange(5.0)))


# --------------------------------------------------------------------- lambda

def test_lambda1_from_table(table_series):
    d1, d2, d3 = table_series
    lam1 = extract_lambda1(d2, d3)
    assert lam1.value == pytest.approx(2.0e-3, abs=0.4e-3)
    assert 0 < lam1.error < 1e-3


def test_lambda23_from_table_signs(table_series):
    d1, d2, d3 = table_series
    lam2, lam3 = extract_lambda23(d1, d2, d3)
    assert lam2.value < 0
    assert lam3.value > 0
    assert 1e-4 < abs(lam2.value) < 1e-2
    assert 1e-4 < abs(lam3.value) < 1e-2


def test_constant_series_zero_lambda():
    m = np.arange(-3.5, 3.5)
    flat = DifferenceSeries(0, m, np.full(7, 0.3))
    assert extract_lambda1(flat, flat).value == pytest.approx(0.0, abs=1e-15)
    lam2, lam3 = extract_lambda23(flat, flat, flat)
    assert lam2.value == pytest.approx(0.0, abs=1e-15)
    assert lam3.value == pytest.approx(0.0, abs=1e-15)


def test_restricted_model_round_trip(levels, system):
    # the authoritative oracle: synthetic lines from the three-level model
    # must return the model's own quadratic coefficients exactly
    a_j = 0.02703
    d1m, d2m, d3m = restricted_three_level_deltas(levels, a_j, system)
    m = system.m_i
    lam_true = [
        2 * quadratic_m2_coefficient(m, np.array([d[mm] for mm in m]))
        for d in (d1m, d2m, d3m)
    ]

    fam12 = synthetic_family(1, 2, d2m, d1m, 6.85)
    fam13 = synthetic_family(1, 3, d3m, d1m, 23.3)
    fam23 = synthetic_family(2, 3, d3m, d2m, 16.45)
    d2 = difference_series(fam12)
    d3 = difference_series(fam13)
    d1 = difference_series(fam23)

    lam1 = extract_lambda1(d2, d3)
    lam2, lam3 = extract_lambda23(d1, d2, d3)
    assert lam1.value == pytest.approx(lam_true[0], abs=1e-9)
    assert lam2.value == pytest.approx(lam_true[1], abs=1e-9)
    assert lam3.value == pytest.approx(lam_true[2], abs=1e-9)


def test_lambda_invariant_under_constant_offsets(levels, system):
    # purely electronic transition energies cancel in the differences
    a_j = 0.02703
    d1m, d2m, d3m = restricted_three_level_deltas(levels, a_j, system)
    base = [
        difference_series(synthetic_family(1, 2, d2m, d1m, 6.85)),
        difference_series(synthetic_family(1, 3, d3m, d1m, 23.3)),
        difference_series(synthetic_family(2, 3, d3m, d2m, 16.45)),
    ]
    shifted = [
        difference_series(synthetic_family(1, 2, d2m, d1m, 106.85)),
        difference_series(synthetic_family(1, 3, d3m, d1m, 3.3)),
        difference_series(synthetic_family(2, 3, d3m, d2m, 0.0)),
    ]
    lam_a = extract_lambda1(base[0], base[1])
    lam_b = extract_lambda1(shifted[0], shifted[1])
    assert lam_a.value == pytest.approx(lam_b.value, abs=1e-12)


def test_mismatched_grids_rejected():
    a = DifferenceSeries(2, np.arange(-3.5, 3.5), np.zeros(7))
    b = DifferenceSeries(3, np.arange(-2.5, 3.5), np.zeros(6))
    with pytest.raises(ValueError, match="mismatched"):
        extract_lambda1(a, b)


# ---------------------------------------------------------------------- peaks

def test_single_peak_exact_recovery():
    grid = np.arange(0.0, 1.0, 0.002)
    truth = PeakModel("gaussian", 0.437, 0.05, 2.0)
    peaks, cov = fit_peaks(Spectrum(grid, truth.profile(grid)), 1, "gaussian")
    assert peaks[0].center == pytest.approx(0.437, abs=1e-8)
    assert peaks[0].fwhm == pytest.approx(0.05, abs=1e-8)
    assert peaks[0].amplitude == pytest.approx(2.0, abs=1e-8)
    assert cov.shape == (3, 3)


def test_peak_fit_input_validation():
    grid = np.arange(0.0, 1.0, 0.1)
    spectrum = Spectrum(grid, PeakModel("gaussian", 0.5, 0.2, 1.0).profile(grid))
    with pytest.raises(ValueError, match="n_peaks must be at least 1"):
        fit_peaks(spectrum, 0, "gaussian")
    with pytest.raises(ValueError, match="too few samples"):
        fit_peaks(spectrum, 4, "gaussian")


def test_isotope_doublet_recovery():
    grid = np.arange(23.48, 23.58, 0.0005)
    signal = (
        PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
        + PeakModel("gaussian", 23.527 + 0.0098, 0.0090, 0.33).profile(grid)
    )
    peaks, _ = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
    splitting = peaks[1].center - peaks[0].center
    assert splitting == pytest.approx(0.0098, abs=0.0004)
    for p in peaks:
        assert p.fwhm == pytest.approx(0.0090, abs=0.0002)
    assert peaks[1].amplitude / peaks[0].amplitude == pytest.approx(0.33, abs=0.01)


def test_peak_fit_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    grid = np.arange(0.0, 1.0, 0.002)
    signal = (
        PeakModel("gaussian", 0.3, 0.05, 1.0).profile(grid)
        + PeakModel("gaussian", 0.7, 0.08, 0.6).profile(grid)
    )
    with pytest.raises(ConvergenceError):
        fit_peaks(Spectrum(grid, signal), 2, "gaussian")


def test_residual_history_monotone():
    from hfspec.fitting import _each, damped_least_squares

    grid = np.arange(0.0, 1.0, 0.005)
    signal = PeakModel("gaussian", 0.52, 0.07, 1.3).profile(grid)

    def residual(x):
        return signal - PeakModel("gaussian", x[0], x[2], x[1]).profile(grid)

    bounds = (np.array([0.0, 0.0, 1e-4]), np.array([1.0, np.inf, 1.0]))
    x0 = np.array([0.4, 1.0, 0.1])
    solution = damped_least_squares(_each(residual), x0, x_scale=x0, bounds=bounds)
    history = np.array(solution.chi2_history)
    assert np.all(np.diff(history) <= 0)


def _criterion_10_doublet(grid):
    return PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid) + PeakModel(
        "gaussian", 23.527 + 0.0098, 0.0090, 0.33
    ).profile(grid)


@pytest.mark.parametrize("noise", [0.001, 0.003, 0.01])
def test_noisy_isotope_doublet_splitting(noise):
    """The criterion 10 doublet with Gaussian noise at 0.1-1 % of the main
    peak's height: every seed recovers the splitting within 4e-4 cm^-1."""
    grid = np.arange(23.48, 23.58, 0.0005)
    clean = _criterion_10_doublet(grid)
    for seed in range(20):
        signal = clean + noise * np.random.default_rng(seed).standard_normal(grid.size)
        peaks, _ = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
        splitting = peaks[1].center - peaks[0].center
        assert abs(splitting - 0.0098) < 4e-4, f"seed {seed}: splitting {splitting:.5f}"


def test_zero_amplitude_peak_has_infinite_variance():
    """Two profiles fitted to one noisy peak: the spare profile's amplitude
    falls to the bound 0, which leaves its center and FWHM flat, so their
    variances are inf while every other parameter keeps a finite one."""
    grid = np.arange(23.48, 23.58, 0.0005)
    signal = PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
    signal = signal + 0.003 * np.random.default_rng(1).standard_normal(grid.size)
    peaks, cov = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
    assert [p.amplitude == 0.0 for p in peaks] == [False, True]
    variance = np.diag(cov)
    flat = [1, 5]  # (centers..., amplitudes..., fwhms...) of the second peak
    assert np.all(np.isinf(variance[flat]))
    kept = np.delete(variance, flat)
    assert np.all(np.isfinite(kept)) and np.all(kept > 0)


def test_peak_covariance_scales_by_chi2_over_n_minus_3():
    """One noisy Gaussian: the covariance is (J^T J)^-1 scaled by the residual
    variance chi^2 / (N - 3), three fitted parameters off N samples.  The
    oracle differentiates the model at the returned parameters and inverts
    J^T J directly; scaling by chi^2 / N instead differs by 3/N = 1.5e-2."""
    grid = np.arange(23.48, 23.58, 0.0005)
    signal = PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
    signal = signal + 0.003 * np.random.default_rng(2).standard_normal(grid.size)
    (peak,), cov = fit_peaks(Spectrum(grid, signal), 1, "gaussian")
    x = np.array([peak.center, peak.amplitude, peak.fwhm])

    def residual(p):
        return signal - PeakModel("gaussian", p[0], p[2], p[1]).profile(grid)

    jac = fitting.numerical_jacobian(fitting._each(residual), x, np.abs(x))
    chi2 = float(np.sum(residual(x) ** 2))
    expected = chi2 / (grid.size - 3) * np.linalg.inv(jac.T @ jac)
    np.testing.assert_allclose(np.diag(cov), np.diag(expected), rtol=1e-3)


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="ROADMAP item 8: the spare profile neither converges nor reaches amplitude 0")
def test_spare_profile_is_flagged_on_noise_seed_4():
    """The one noisy peak of the test above, with noise seed 4."""
    grid = np.arange(23.48, 23.58, 0.0005)
    signal = PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
    signal = signal + 0.003 * np.random.default_rng(4).standard_normal(grid.size)
    peaks, cov = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
    spare = [k for k, p in enumerate(peaks) if p.amplitude == 0.0]
    assert len(spare) == 1
    assert abs(peaks[1 - spare[0]].center - 23.527) < 1e-4
    assert np.all(np.isinf(np.diag(cov)[[spare[0], 4 + spare[0]]]))


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="ROADMAP item 8: the greedy start places one profile on the merged pair")
def test_four_overlapping_lorentzians_are_recovered():
    grid = np.arange(16.40, 16.54, 0.0005)
    centers = [16.450, 16.455, 16.467, 16.489]
    signal = sum(PeakModel("lorentzian", c, 0.013, h).profile(grid) for c, h in zip(centers, [1.0, 0.8, 0.6, 0.35]))
    peaks, _ = fit_peaks(Spectrum(grid, signal), 4, "lorentzian")
    assert np.max(np.abs(np.array([p.center for p in peaks]) - centers)) < 1e-3


def test_fwhm_probe_below_zero_is_refused():
    """One sample 1e-9 after another sets the FWHM lower bound to 1e-9.  The
    spare profile's FWHM falls to that bound, where a central Jacobian probe,
    a step of 1e-6 times the start width, would put it below 0.  The bound
    keeps the probe inside: it stops at the bound, so the model never sees a
    width below it, and the fit returns the real peak where it is and the
    spare width at its bound with variance inf."""
    base = np.arange(23.48, 23.58, 0.0005)
    grid = np.sort(np.append(base, base[20] + 1e-9))
    spacing = float(np.min(np.diff(grid)))
    signal = PeakModel("gaussian", 23.527, 0.0090, 1.0).profile(grid)
    signal = signal + 0.003 * np.random.default_rng(0).standard_normal(grid.size)
    peaks, cov = fit_peaks(Spectrum(grid, signal), 2, "gaussian")
    real, spare = sorted(peaks, key=lambda p: p.fwhm, reverse=True)
    assert abs(real.center - 23.527) < 1e-4
    assert spare.fwhm == spacing
    # covariance order (centers..., amplitudes..., fwhms...): one width is
    # flat, the real one is not
    assert sorted(np.isinf(np.diag(cov)[4:]).tolist()) == [False, True]
