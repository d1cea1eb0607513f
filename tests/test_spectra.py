import numpy as np
import pytest

from hfspec.hamiltonian import HFLevel, HyperfineConstants, hf_levels_exact
from hfspec.spectra import (
    KB_CM_PER_K,
    IsotopeConfig,
    PeakModel,
    Spectrum,
    TransitionLine,
    boltzmann_weights,
    synthesize,
    transition_lines,
)


def test_reference_12_lines(hf_levels):
    lines = transition_lines(hf_levels, 1, 2)
    assert len(lines) == 8
    energies = sorted(ln.energy for ln in lines)
    assert energies[0] == pytest.approx(6.31, abs=0.05)
    assert energies[-1] == pytest.approx(7.33, abs=0.05)


def test_reference_23_pm_degenerate(hf_levels):
    lines = transition_lines(hf_levels, 2, 3)
    assert len(lines) == 8
    distinct = {round(ln.energy, 8) for ln in lines}
    assert len(distinct) == 4
    by_m = {ln.m_z: ln.energy for ln in lines}
    for m in (0.5, 1.5, 2.5, 3.5):
        assert by_m[m] == pytest.approx(by_m[-m], abs=1e-9)


def test_zero_coupling_lines_coincide(cf_params, system):
    hf = hf_levels_exact(cf_params, HyperfineConstants(0.0, 0.0), system)
    lines = transition_lines(hf, 1, 2)
    assert len(lines) == 8
    energies = [ln.energy for ln in lines]
    assert np.ptp(energies) < 1e-9


def test_swap_antisymmetry(hf_levels):
    # swapping initial and final levels negates the energy set; the merged
    # Kramers representatives may carry mirrored m_z labels, so compare sets
    forward = sorted(ln.energy for ln in transition_lines(hf_levels, 1, 3))
    backward = sorted(ln.energy for ln in transition_lines(hf_levels, 3, 1))
    assert np.allclose(forward, sorted(-e for e in backward), atol=1e-12)
    # for singlet-singlet pairs the per-m_z correspondence is exact
    fwd = {ln.m_z: ln.energy for ln in transition_lines(hf_levels, 2, 3)}
    bwd = {ln.m_z: ln.energy for ln in transition_lines(hf_levels, 3, 2)}
    for m, energy in fwd.items():
        assert energy == pytest.approx(-bwd[m], abs=1e-12)


def test_missing_level_rejected(hf_levels):
    with pytest.raises(ValueError, match="no hyperfine levels"):
        transition_lines(hf_levels, 1, 99)


def test_centroid_matches_correction_means(levels, hf_levels):
    # mean line energy = E2 - E1 + mean(correction difference); close to the
    # measured centroid 6.849 of the eight-line ladder
    lines = transition_lines(hf_levels, 1, 2)
    mean_line = np.mean([ln.energy for ln in lines])
    corr1 = np.mean([h.correction for h in hf_levels if h.n == 1 and h.sigma == +1])
    corr2 = np.mean([h.correction for h in hf_levels if h.n == 2])
    expected = levels[1].energy - levels[0].energy + corr2 - corr1
    assert mean_line == pytest.approx(expected, abs=1e-9)
    assert mean_line == pytest.approx(6.849, abs=0.02)


def test_boltzmann_infinite_temperature(hf_levels):
    weights = boltzmann_weights(hf_levels, 1e9)
    values = np.array(list(weights.values()))
    assert np.allclose(values, 1.0 / len(hf_levels), atol=1e-6)
    assert values.sum() == pytest.approx(1.0, abs=1e-12)


def test_boltzmann_unit_ratio():
    # two levels split by exactly k_B in these units at T = 1 K
    pair = [
        HFLevel(1, +1, 0.5, 0.0, 0.0),
        HFLevel(2, +1, 0.5, KB_CM_PER_K, 0.0),
    ]
    weights = boltzmann_weights(pair, 1.0)
    ratio = weights[(2, +1, 0.5)] / weights[(1, +1, 0.5)]
    assert ratio == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_boltzmann_rejects_nonpositive_temperature(hf_levels):
    with pytest.raises(ValueError):
        boltzmann_weights(hf_levels, 0.0)


def test_second_level_population_at_9k(hf_levels):
    # heating to 9 K populates the first excited level appreciably; compare
    # against an explicit sum over the same energies
    weights = boltzmann_weights(hf_levels, 9.0)
    population = sum(w for (n, _, _), w in weights.items() if n == 2)
    energies = np.array([h.energy for h in hf_levels])
    boltz = np.exp(-(energies - energies.min()) / (KB_CM_PER_K * 9.0))
    explicit = sum(
        b for h, b in zip(hf_levels, boltz) if h.n == 2
    ) / boltz.sum()
    assert population == pytest.approx(explicit, abs=1e-12)
    assert 0.05 < population < 0.5


def test_population_grows_with_temperature(hf_levels):
    populations = [
        sum(w for (n, _, _), w in boltzmann_weights(hf_levels, t).items() if n == 2)
        for t in (3.0, 6.0, 9.0, 15.0)
    ]
    assert all(a < b for a, b in zip(populations, populations[1:]))


def test_gaussian_half_maximum():
    grid = np.linspace(-0.05, 0.05, 2001)
    fwhm = 0.0090
    spec = synthesize(
        [TransitionLine(1, 2, None, 0.0)],
        PeakModel("gaussian", 0.0, fwhm, 1.0),
        grid,
    )
    center = np.interp(0.0, grid, spec.absorbance)
    at_half = np.interp(fwhm / 2, grid, spec.absorbance)
    assert at_half == pytest.approx(center / 2, abs=1e-9)


def test_gaussian_fwhm_sigma_conversion():
    from hfspec.spectra import GAUSSIAN_FWHM_FACTOR

    fwhm = 0.025
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    peak = PeakModel("gaussian", 0.0, fwhm, 1.0)
    x = np.linspace(-0.1, 0.1, 101)
    assert np.allclose(peak.profile(x), np.exp(-(x**2) / (2 * sigma**2)), atol=1e-12)


def test_lorentzian_half_maximum():
    grid = np.linspace(-1.0, 1.0, 20001)
    spec = synthesize(
        [TransitionLine(1, 2, None, 0.0)],
        PeakModel("lorentzian", 0.0, 0.2, 2.0),
        grid,
    )
    assert np.interp(0.1, grid, spec.absorbance) == pytest.approx(1.0, abs=1e-9)


def test_satellite_resolved():
    iso = IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=True)
    grid = np.arange(-0.03, 0.045, 0.0002)
    spec = synthesize(
        [TransitionLine(1, 3, None, 0.0)],
        PeakModel("gaussian", 0.0, 0.004, 1.0),
        grid,
        iso,
    )
    y = spec.absorbance
    maxima = [
        grid[k] for k in range(1, len(grid) - 1) if y[k] > y[k - 1] and y[k] > y[k + 1]
    ]
    assert len(maxima) == 2
    assert maxima[1] - maxima[0] == pytest.approx(0.0098, abs=0.0005)
    assert np.interp(maxima[1], grid, y) == pytest.approx(0.33, abs=0.02)


def test_ground_ladder_resolved_at_measured_linewidth(hf_levels):
    # eight clean peaks at the instrument linewidth of the low-energy setup
    lines = transition_lines(hf_levels, 1, 2)
    grid = np.arange(6.1, 7.6, 0.001)
    spec = synthesize(lines, PeakModel("gaussian", 0.0, 0.017, 1.0), grid)
    y = spec.absorbance
    count = sum(
        1 for k in range(1, len(grid) - 1) if y[k] > y[k - 1] and y[k] > y[k + 1]
    )
    assert count == 8


def test_empty_line_list_zero_spectrum():
    grid = np.linspace(0.0, 1.0, 11)
    spec = synthesize([], PeakModel("gaussian", 0.0, 0.1, 1.0), grid)
    assert np.array_equal(spec.absorbance, np.zeros_like(grid))


def test_gaussian_integral_matches_area():
    fwhm = 0.01
    peak = PeakModel("gaussian", 0.5, fwhm, 2.0)
    grid = np.arange(0.5 - 20 * fwhm, 0.5 + 20 * fwhm, fwhm / 20)
    spec = synthesize([TransitionLine(1, 2, None, 0.5, intensity=2.0)],
                      PeakModel("gaussian", 0.0, fwhm, 1.0), grid)
    integral = np.trapezoid(spec.absorbance, grid)
    assert integral == pytest.approx(peak.area(), rel=1e-3)


def test_lorentzian_integral_slow_tails():
    fwhm = 0.01
    peak = PeakModel("lorentzian", 0.0, fwhm, 1.0)
    grid = np.arange(-500 * fwhm, 500 * fwhm, fwhm / 20)
    integral = np.trapezoid(peak.profile(grid), grid)
    assert integral == pytest.approx(peak.area(), rel=0.02)


def test_intensity_weighted_lines(hf_levels):
    weights = boltzmann_weights(hf_levels, 3.0)
    lines = transition_lines(hf_levels, 1, 2, weights=weights)
    by_m = {ln.m_z: ln.intensity for ln in lines}
    # colder sample: lowest m_z of the ground ladder is the most occupied
    assert by_m[-3.5] == max(by_m.values())
    # each line carries its initial state weight plus the Kramers partner's
    expected = weights[(1, +1, -3.5)] + weights[(1, -1, 3.5)]
    assert by_m[-3.5] == pytest.approx(expected, abs=1e-12)


def test_peak_model_validation():
    with pytest.raises(ValueError):
        PeakModel("gaussian", 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        PeakModel("voigt", 0.0, 0.1, 1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]), np.zeros(3))


def _independent_ladder(j):
    m = np.arange(-j, j + 1)
    jz = np.diag(m)
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1)
    return jz, jp, jp.T


def _weighted_lines(hf_levels, levels, n_init, n_final, mode):
    weights = boltzmann_weights(hf_levels, 3.0)
    unit = transition_lines(hf_levels, n_init, n_final, weights=weights)
    moded = transition_lines(
        hf_levels, n_init, n_final, weights=weights, cf_levels=levels, intensity_mode=mode
    )
    return unit, moded


def _final_branch(hf_levels, line):
    """sigma of the final state of a line from the ground doublet's sigma = +1 branch."""
    energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels}
    e_init = energy[(line.n_init, +1, line.m_z)]
    return min(
        (s for (n, s, m) in energy if n == line.n_final and m == line.m_z),
        key=lambda s: abs(energy[(line.n_final, s, line.m_z)] - e_init - line.energy),
    )


@pytest.mark.parametrize("mode", ["jz", "jpm"])
@pytest.mark.parametrize("n_final", [2, 6])
def test_intensity_mode_scales_by_matrix_element(hf_levels, levels, system, mode, n_final):
    """Each weighted line is multiplied by |<f|J_z|i>|^2, or by
    |<f|J+|i>|^2 + |<f|J-|i>|^2, computed here from explicit matrices."""
    jz, jp, jm = _independent_ladder(system.j)
    by_n = {lv.n: lv for lv in levels}
    unit, moded = _weighted_lines(hf_levels, levels, 1, n_final, mode)
    assert len(unit) == len(moded)
    factors = []
    for plain, line in zip(unit, moded):
        # the ground doublet is the initial level, so every canonical line
        # starts on its sigma = +1 branch
        vi = by_n[1].vectors[+1]
        vf = by_n[n_final].vectors[_final_branch(hf_levels, line)]
        if mode == "jz":
            factor = abs(np.vdot(vf, jz @ vi)) ** 2
        else:
            factor = abs(np.vdot(vf, jp @ vi)) ** 2 + abs(np.vdot(vf, jm @ vi)) ** 2
        assert line.intensity == pytest.approx(plain.intensity * factor, rel=1e-12, abs=1e-15)
        factors.append(factor)
    # S4 selection rules: J_z links the two doublets, J+- the doublet to the singlet
    assert (max(factors) > 1e-6) == ((mode == "jz") == (n_final == 6))


def test_intensity_mode_unknown_rejected(hf_levels, levels):
    weights = boltzmann_weights(hf_levels, 3.0)
    with pytest.raises(ValueError, match="unknown intensity mode"):
        transition_lines(hf_levels, 1, 2, weights=weights, cf_levels=levels, intensity_mode="jx")


@pytest.mark.parametrize("mode", ["jz", "jpm"])
def test_intensity_mode_requires_cf_levels(hf_levels, mode):
    weights = boltzmann_weights(hf_levels, 3.0)
    with pytest.raises(ValueError, match="requires the CF levels"):
        transition_lines(hf_levels, 1, 2, weights=weights, intensity_mode=mode)
