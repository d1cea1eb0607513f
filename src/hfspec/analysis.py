"""Inverse analysis of measured hyperfine line lists and spectra.

The nearly equidistant hyperfine ladders carry their m_z^2 corrections in the
*differences* D(m_z) = E(m_z + 1) - E(m_z) between neighbouring lines: any
purely electronic transition energy cancels, a linear-in-m_z correction
becomes a constant, and a quadratic correction becomes the slope of D.
Combining the slopes of the three transition families among the lowest three
CF levels isolates the coefficients lambda_n, exploiting the antisymmetry of
the mutual second-order repulsion between the levels:

    lambda1 = -(s2 + s3) / 4
    lambda2 = (s2 + s3 - 2 s1) / 4
    lambda3 = (s2 + s3 + 2 s1) / 4

where s_i is the fitted slope of D_i (D1: 2->3, D2: 1->2, D3: 1->3).  These
estimators are exact for the three-level model without quadrupolar coupling.
Note that published slope values for such ladders are often quoted with the
opposite sign convention (positive for a ladder that compresses with rising
m_z); the raw fitted slope is kept here and negated at the reporting layer.

Also provides deterministic multi-peak fitting (Gaussian or Lorentzian) for
extracting centers, amplitudes and FWHM from measured spectra.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .fitting import LSQSolution, covariance_from_jacobian, damped_least_squares
from .spectra import PeakModel, Spectrum, TransitionLine, _peak_profile

#: difference-series index per (n_init, n_final) family
FAMILY_INDEX = {(2, 3): 1, (1, 2): 2, (1, 3): 3}


class Estimate(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class DifferenceSeries:
    """D(m_z) = E(m_z + 1) - E(m_z) over a ladder of lines.

    ``m_z`` holds the lower member of each neighbouring pair; ``which`` is 1,
    2 or 3 for the three standard families and 0 otherwise.
    """

    which: int
    m_z: NDArray[np.float64]
    values: NDArray[np.float64]
    sigmas: NDArray[np.float64] | None = None


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    slope_err: float


def difference_series(lines: list[TransitionLine]) -> DifferenceSeries:
    """Neighbouring-m_z differences of one transition family.

    The lines must carry distinct m_z values forming a unit-spaced ladder
    (eight lines for i = 7/2).  Uncertainties, when present on every line,
    propagate in quadrature to the differences.
    """
    if not lines:
        raise ValueError("no lines supplied")
    families = {(ln.n_init, ln.n_final) for ln in lines}
    if len(families) > 1:
        raise ValueError(f"lines mix transition families: {sorted(families)}")
    if any(ln.m_z is None for ln in lines):
        raise ValueError("difference series needs hyperfine-resolved lines with m_z")
    ordered = sorted(lines, key=lambda ln: ln.m_z)
    m = np.array([ln.m_z for ln in ordered])
    if len(set(m.tolist())) != len(m):
        raise ValueError("duplicate m_z values in the line list")
    if not np.allclose(np.diff(m), 1.0, atol=1e-9):
        raise ValueError("m_z values must form a complete unit-spaced ladder")
    energies = np.array([ln.energy for ln in ordered])
    values = np.diff(energies)
    sigmas = None
    if all(ln.uncertainty is not None for ln in ordered):
        s = np.array([ln.uncertainty for ln in ordered])
        sigmas = np.sqrt(s[1:] ** 2 + s[:-1] ** 2)
    which = FAMILY_INDEX.get(next(iter(families)), 0)
    return DifferenceSeries(which, m[:-1], values, sigmas)


def fit_slope(series: DifferenceSeries) -> SlopeFit:
    """Weighted straight-line fit of a difference series.

    Weights come from the series' own propagated sigmas, else are uniform.
    The slope error is taken from the regression covariance scaled by the
    residual variance, so an exact line reports zero error regardless of the
    assumed weights.
    """
    x = np.asarray(series.m_z, dtype=float)
    y = np.asarray(series.values, dtype=float)
    if len(x) < 3:
        raise ValueError(f"need at least 3 points for a slope fit, got {len(x)}")
    if np.ptp(x) == 0:
        raise ValueError("degenerate abscissae: all m_z equal")
    sig = series.sigmas
    w = np.ones_like(x) if sig is None else 1.0 / np.asarray(sig, dtype=float) ** 2

    design = np.vstack([np.ones_like(x), x]).T
    normal = design.T @ (w[:, None] * design)
    rhs = design.T @ (w * y)
    intercept, slope = np.linalg.solve(normal, rhs)
    resid = y - (intercept + slope * x)
    chi2 = float(np.sum(w * resid**2))
    scale = chi2 / (len(x) - 2)
    slope_var = scale * np.linalg.inv(normal)[1, 1]
    return SlopeFit(float(slope), float(intercept), float(np.sqrt(max(slope_var, 0.0))))


def _check_grids(*series: DifferenceSeries) -> None:
    first = series[0].m_z
    for s in series[1:]:
        if len(s.m_z) != len(first) or not np.allclose(s.m_z, first, atol=1e-9):
            raise ValueError("difference series are on mismatched m_z grids")


def extract_lambda1(d2: DifferenceSeries, d3: DifferenceSeries) -> Estimate:
    """Ground-level m_z^2 coefficient from the two ground-state families."""
    _check_grids(d2, d3)
    s2, s3 = fit_slope(d2), fit_slope(d3)
    value = -(s2.slope + s3.slope) / 4.0
    error = np.sqrt(s2.slope_err**2 + s3.slope_err**2) / 4.0
    return Estimate(float(value), float(error))


def extract_lambda23(
    d1: DifferenceSeries, d2: DifferenceSeries, d3: DifferenceSeries
) -> tuple[Estimate, Estimate]:
    """m_z^2 coefficients of the two excited singlets from all three families."""
    _check_grids(d1, d2, d3)
    s1, s2, s3 = fit_slope(d1), fit_slope(d2), fit_slope(d3)
    base = s2.slope + s3.slope
    error = float(np.sqrt(s2.slope_err**2 + s3.slope_err**2 + 4.0 * s1.slope_err**2) / 4.0)
    return Estimate(float((base - 2.0 * s1.slope) / 4.0), error), Estimate(float((base + 2.0 * s1.slope) / 4.0), error)


def _half_max_window(smooth: NDArray[np.float64], top: int) -> tuple[int, int]:
    """Indices of the contiguous half-maximum region around sample ``top``."""
    half = smooth[top] / 2.0
    above = smooth >= half
    left = top
    while left > 0 and above[left - 1]:
        left -= 1
    right = top
    while right < len(smooth) - 1 and above[right + 1]:
        right += 1
    return left, right


def _initial_peaks(
    grid: NDArray[np.float64],
    signal: NDArray[np.float64],
    n_peaks: int,
    shape: str,
) -> tuple[NDArray[np.float64], NDArray[np.float64], float]:
    """Deterministic initialization for the peak fit by greedy subtraction.

    The signal is smoothed over 3 grid points.  Then, once per peak, a trial
    profile is placed on the residual maximum, with its width read off the
    residual's half-maximum crossings and its amplitude the residual there,
    and is subtracted.  The initial FWHM is the median of those widths.
    Local maxima are not used as seeds: noise adds maxima, and a center
    seeded on a noise spike lets the fit lose the weaker of two blended peaks.
    """
    residual = signal.copy()
    residual[1:-1] = (signal[:-2] + signal[1:-1] + signal[2:]) / 3.0
    spacing = grid[1] - grid[0]
    centers, amps, widths = [], [], []
    for _ in range(n_peaks):
        top = int(np.argmax(residual))
        left, right = _half_max_window(residual, top)
        width = max(grid[right] - grid[left], 2.0 * spacing)
        height = max(residual[top], 1e-12)
        centers.append(grid[top])
        amps.append(height)
        widths.append(width)
        trial = PeakModel(shape, float(grid[top]), float(width), float(height))
        residual = residual - trial.profile(grid)

    order = np.argsort(centers)
    return np.asarray(centers)[order], np.asarray(amps)[order], float(np.median(widths))


def fit_peaks(
    spectrum: Spectrum,
    n_peaks: int,
    shape: str = "gaussian",
) -> tuple[list[PeakModel], NDArray[np.float64]]:
    """Nonlinear least-squares fit of ``n_peaks`` profiles to a spectrum.

    Parameters per peak are center, amplitude and FWHM.  Initialization is
    deterministic (see ``_initial_peaks``); centers are bounded to the grid and
    widths to [grid spacing, grid span].  Returns the fitted peaks sorted by
    center and the parameter covariance (``covariance_from_jacobian`` scaled
    by the residual variance) in the order (centers..., amplitudes...,
    fwhms...).
    A parameter in a flat direction, such as the center and FWHM of a peak
    whose amplitude fell to 0, has variance inf.

    Raises ConvergenceError if the optimizer does not converge within
    ``fitting.MAX_ITERATIONS``; failures are reported, never silently clipped.
    """
    if n_peaks < 1:
        raise ValueError("n_peaks must be at least 1")
    grid = spectrum.grid
    signal = spectrum.absorbance
    if len(grid) < 3 * n_peaks:
        raise ValueError("spectrum has too few samples for the requested peaks")

    centers0, amps0, fwhm0 = _initial_peaks(grid, signal, n_peaks, shape)
    spacing = float(np.min(np.diff(grid)))
    span = float(grid[-1] - grid[0])
    fwhm0 = float(np.clip(fwhm0, spacing, span))

    x0 = np.concatenate([centers0, amps0, np.full(n_peaks, fwhm0)])
    lo = np.concatenate(
        [np.full(n_peaks, grid[0]), np.zeros(n_peaks), np.full(n_peaks, spacing)]
    )
    hi = np.concatenate(
        [np.full(n_peaks, grid[-1]), np.full(n_peaks, np.inf), np.full(n_peaks, span)]
    )

    def model(x):
        total = np.zeros_like(grid)
        for c, a, f in zip(*x.reshape(3, -1).tolist()):
            total += _peak_profile(shape, c, f, a, grid)
        return total

    def residual(x):
        return signal - model(x)

    scale = np.concatenate(
        [
            np.full(n_peaks, max(span, spacing)),
            np.maximum(amps0, 1e-8),
            np.full(n_peaks, fwhm0),
        ]
    )
    solution: LSQSolution = damped_least_squares(residual, x0, x_scale=scale, bounds=(lo, hi))

    dof = max(len(grid) - len(x0), 1)
    cov, _, flat = covariance_from_jacobian(solution.jacobian, solution.x_scale)
    cov = solution.chi2 / dof * cov
    cov[flat, flat] = np.inf

    peaks = [PeakModel(shape, float(c), float(f), float(a)) for c, a, f in zip(*np.split(solution.x, 3))]
    order = np.argsort([p.center for p in peaks])
    return [peaks[k] for k in order], cov
