import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfspec.hamiltonian import HFLevel, HyperfineConstants, hf_levels_exact
from hfspec.spectra import (
    GAUSSIAN_REACH,
    KB_CM_PER_K,
    PEAK_SHAPES,
    IsotopeConfig,
    PeakModel,
    Spectrum,
    TransitionLine,
    boltzmann_weights,
    synthesize,
    transition_lines,
)

#: the isotope satellite of reference.ini, and the same with the satellite off
ISOTOPE = IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=True)
NO_ISOTOPE = replace(ISOTOPE, enabled=False)


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
        NO_ISOTOPE,
    )
    center = np.interp(0.0, grid, spec.absorbance)
    at_half = np.interp(fwhm / 2, grid, spec.absorbance)
    assert at_half == pytest.approx(center / 2, abs=1e-9)


def test_gaussian_fwhm_sigma_conversion():
    fwhm = 0.025
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    peak = PeakModel("gaussian", 0.0, fwhm, 1.0)
    x = np.linspace(-0.1, 0.1, 101)
    assert np.allclose(peak.profile(x), np.exp(-(x**2) / (2 * sigma**2)), atol=1e-12)


def test_lorentzian_half_maximum():
    grid = np.linspace(-1.0, 1.0, 20001)
    spec = synthesize(
        [TransitionLine(1, 2, None, 0.0)],
        PeakModel("lorentzian", 0.0, 0.2, 2.0),
        grid,
        NO_ISOTOPE,
    )
    assert np.interp(0.1, grid, spec.absorbance) == pytest.approx(1.0, abs=1e-9)


def test_satellite_resolved():
    iso = ISOTOPE
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
    spec = synthesize(lines, PeakModel("gaussian", 0.0, 0.017, 1.0), grid, NO_ISOTOPE)
    y = spec.absorbance
    count = sum(
        1 for k in range(1, len(grid) - 1) if y[k] > y[k - 1] and y[k] > y[k + 1]
    )
    assert count == 8


def test_empty_line_list_zero_spectrum():
    grid = np.linspace(0.0, 1.0, 11)
    spec = synthesize([], PeakModel("gaussian", 0.0, 0.1, 1.0), grid, NO_ISOTOPE)
    assert np.array_equal(spec.absorbance, np.zeros_like(grid))


def test_empty_grid_is_refused_and_one_sample_is_its_profile_value():
    shape = PeakModel("lorentzian", 0.0, 0.1, 1.0)
    with pytest.raises(ValueError, match="grid must be nonempty"):
        synthesize([TransitionLine(1, 2, None, 0.5)], shape, np.array([]), NO_ISOTOPE)
    spec = synthesize([TransitionLine(1, 2, None, 0.5)], shape, np.array([0.52]), NO_ISOTOPE)
    assert spec.absorbance.tolist() == PeakModel("lorentzian", 0.5, 0.1, 1.0).profile([0.52]).tolist()


def test_gaussian_integral_matches_area():
    fwhm = 0.01
    peak = PeakModel("gaussian", 0.5, fwhm, 2.0)
    grid = np.arange(0.5 - 20 * fwhm, 0.5 + 20 * fwhm, fwhm / 20)
    spec = synthesize([TransitionLine(1, 2, None, 0.5, intensity=2.0)],
                      PeakModel("gaussian", 0.0, fwhm, 1.0), grid, NO_ISOTOPE)
    integral = np.trapezoid(spec.absorbance, grid)
    area = peak.amplitude * peak.fwhm * 0.5 * math.sqrt(math.pi / math.log(2.0))
    assert integral == pytest.approx(area, rel=1e-3)


def test_lorentzian_integral_slow_tails():
    fwhm = 0.01
    peak = PeakModel("lorentzian", 0.0, fwhm, 1.0)
    grid = np.arange(-500 * fwhm, 500 * fwhm, fwhm / 20)
    integral = np.trapezoid(peak.profile(grid), grid)
    # the full line integrates to A pi FWHM / 2; the tails converge slowly
    assert integral == pytest.approx(peak.amplitude * math.pi * peak.fwhm / 2, rel=0.02)


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


def test_isotope_config_validation():
    with pytest.raises(ValueError, match="isotope splitting must be finite"):
        replace(ISOTOPE, splitting=np.inf)
    with pytest.raises(ValueError, match="satellite ratio must be nonnegative"):
        replace(ISOTOPE, satellite_ratio=-1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]), np.zeros(3))


def _synthesize_full_grid(lines, shape, grid, isotope):
    """Reference: every profile evaluated on the whole grid and added in line
    order, as ``synthesize`` did before it evaluated each peak only within
    its reach."""
    total = np.zeros_like(grid)
    for line in lines:
        height = shape.amplitude * (1.0 if line.intensity is None else line.intensity)
        total += PeakModel(shape.shape, line.energy, shape.fwhm, height).profile(grid)
        if isotope.enabled:
            satellite = PeakModel(
                shape.shape, line.energy + isotope.splitting, shape.fwhm, height * isotope.satellite_ratio
            )
            total += satellite.profile(grid)
    return total


#: the bundled synthesis grid: 22.5 to 24.1 cm^-1 in steps of 0.0005
GRID = np.arange(22.5, 24.1 + 0.00025, 0.0005)
STEP, LO, HI = 0.0005, GRID[0], GRID[-1]


@st.composite
def synthesis_cases(draw):
    """Lines inside the grid, at its edges, just inside or beyond a Gaussian's
    reach and far outside; heights of 0, negative and 1e-300; FWHM from one
    grid step to the span of the grid."""
    fwhm = draw(st.floats(min_value=STEP, max_value=HI - LO))

    def center():
        kind = draw(st.sampled_from(["inside", "edge", "reach", "far"]))
        if kind == "inside":
            return draw(st.floats(min_value=LO, max_value=HI))
        edge, outward = draw(st.sampled_from([(LO, -1.0), (HI, 1.0)]))
        if kind == "edge":
            return edge + draw(st.floats(min_value=-3.0, max_value=3.0)) * STEP
        if kind == "reach":
            return edge + outward * fwhm * (GAUSSIAN_REACH + draw(st.floats(min_value=-0.01, max_value=0.01)))
        return edge + outward * draw(st.floats(min_value=1e3, max_value=1e300))

    intensity = st.one_of(
        st.none(), st.sampled_from([0.0, -0.0, -2.5, 1e-300]), st.floats(min_value=-5.0, max_value=5.0)
    )
    lines = [
        TransitionLine(1, 2, 0.5, center(), intensity=draw(intensity))
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    shape = PeakModel(draw(st.sampled_from(PEAK_SHAPES)), 0.0, fwhm, draw(st.sampled_from([1.0, -0.7, 1e-300])))
    isotope = draw(st.sampled_from([ISOTOPE, NO_ISOTOPE,
                                    IsotopeConfig(splitting=-0.3, satellite_ratio=1.5, enabled=True)]))
    return lines, shape, isotope


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(synthesis_cases())
def test_synthesize_is_bit_identical_to_full_grid_sum(case):
    lines, shape, isotope = case
    with np.errstate(over="ignore"):  # x^2 overflows for the far lines
        spectrum = synthesize(lines, shape, GRID, isotope)
        expected = _synthesize_full_grid(lines, shape, GRID, isotope)
    assert spectrum.absorbance.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fwhm", [1e-165, 1e-162, 3e-162, 1e-154])
def test_tiny_fwhm_is_bit_identical_to_full_grid_sum(fwhm):
    """Where FWHM^2 is subnormal or zero its rounding can move the exponent by
    more than the reach allows for, so such a Gaussian spans the whole grid."""
    rng = np.random.default_rng(7)
    shape = PeakModel("gaussian", 0.0, fwhm, 1.0)
    for _ in range(20):
        grid = np.unique(rng.uniform(-100.0, 100.0, 200)) * fwhm
        lines = [TransitionLine(1, 2, 0.5, c) for c in rng.uniform(-30.0, 30.0, 3) * fwhm]
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            spectrum = synthesize(lines, shape, grid, NO_ISOTOPE)
            expected = _synthesize_full_grid(lines, shape, grid, NO_ISOTOPE)
        assert spectrum.absorbance.tobytes() == expected.tobytes()


def test_gaussian_is_exactly_zero_beyond_its_reach():
    fwhm = 0.009
    x = fwhm * GAUSSIAN_REACH * np.array([1.0, 1.0 + 1e-12, 2.0, 1e6])
    assert np.all(PeakModel("gaussian", 0.0, fwhm, 1e300).profile(np.concatenate([x, -x])) == 0.0)
    assert PeakModel("gaussian", 0.0, fwhm, 1.0).profile(np.array([0.9 * fwhm * GAUSSIAN_REACH]))[0] > 0.0


@pytest.mark.parametrize("energy, intensity", [
    (math.nan, None), (math.inf, None), (-math.inf, 1.0), (23.0, math.nan), (23.0, math.inf), (23.0, -math.inf),
])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
def test_non_finite_line_is_refused(energy, intensity, shape):
    """A line at nan or +-inf, or with a non-finite height, is named in a
    ValueError rather than turning the spectrum into nan or vanishing."""
    good = TransitionLine(1, 2, -0.5, 23.1)
    bad = TransitionLine(1, 3, 1.5, energy, intensity=intensity)
    with pytest.raises(ValueError, match=r"TransitionLine\(n_init=1, n_final=3, m_z=1\.5, .*non-finite"):
        synthesize([good, bad], PeakModel(shape, 0.0, 0.009, 1.0), GRID, ISOTOPE)


def test_non_finite_satellite_is_refused():
    line = TransitionLine(1, 2, 0.5, 23.0)
    with pytest.raises(ValueError, match="non-finite"):
        synthesize([line], PeakModel("gaussian", 0.0, 0.009, 1.0), GRID,
                   replace(ISOTOPE, satellite_ratio=math.inf))
