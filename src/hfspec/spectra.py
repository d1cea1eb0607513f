"""Forward synthesis of absorbance spectra from electron-nuclear levels.

Transition lines conserve m_z.  Absorbance A = log10(I0/I) is additive over
peaks, so a spectrum is a plain sum of line profiles, optionally with an
isotope satellite per line: substituting one light isotope on a neighbouring
lattice site shifts a line by a fixed splitting, and at natural abundance
only the zero- and one-substitution peaks are visible.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .hamiltonian import HFLevel

#: Boltzmann constant in spectroscopic units
KB_CM_PER_K = 0.695035

#: FWHMs from its center beyond which a Gaussian's exponent is below -800: exp gives 0.0
GAUSSIAN_REACH = math.sqrt(800.0 / (4.0 * math.log(2.0)))

PEAK_SHAPES = ("gaussian", "lorentzian")


@dataclass(frozen=True)
class TransitionLine:
    """One absorption line between labelled electron-nuclear levels.

    ``m_z`` is None for lines that average over the hyperfine structure.
    Intensity is in arbitrary units; None means unspecified.  ``branches`` is
    the branch pair (sigma_i, sigma_f) of the initial and final levels whose
    energies the line joins, as ``transition_lines`` sets it; None for lines
    built from measured rows.
    """

    n_init: int
    n_final: int
    m_z: float | None
    energy: float
    uncertainty: float | None = None
    intensity: float | None = None
    branches: tuple[int, int] | None = None


@dataclass(frozen=True)
class PeakModel:
    """A single line profile: shape, center, FWHM and peak height."""

    shape: str
    center: float
    fwhm: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.shape not in PEAK_SHAPES:
            raise ValueError(f"unknown peak shape {self.shape!r}; use one of {PEAK_SHAPES}")
        if not self.fwhm > 0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")

    def profile(self, grid: NDArray[np.float64]) -> NDArray[np.float64]:
        return _peak_profile(self.shape, self.center, self.fwhm, self.amplitude, np.asarray(grid, dtype=float))


def _peak_profile(
    shape: str, center: float, fwhm: float, amplitude: float, grid: NDArray[np.float64]
) -> NDArray[np.float64]:
    """``PeakModel(shape, center, fwhm, amplitude).profile(grid)`` on a float
    array ``grid``, for callers that have checked shape and FWHM already."""
    x = grid - center
    if shape == "gaussian":
        return amplitude * np.exp(-4.0 * math.log(2.0) * x**2 / fwhm**2)
    half = 0.5 * fwhm
    return amplitude * half**2 / (x**2 + half**2)


def _peak_profiles(
    shape: str,
    centers: NDArray[np.float64],
    fwhms: NDArray[np.float64],
    amplitudes: NDArray[np.float64],
    grid: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``_peak_profile`` of each (center, fwhm, amplitude), one row each, with
    the same float operations: each FWHM is squared, or halved and squared,
    as a Python float."""
    x = grid - centers[:, None]
    if shape == "gaussian":
        squares = np.array([fwhm**2 for fwhm in fwhms.tolist()])
        return amplitudes[:, None] * np.exp(-4.0 * math.log(2.0) * x**2 / squares[:, None])
    squares = np.array([(0.5 * fwhm) ** 2 for fwhm in fwhms.tolist()])
    return (amplitudes * squares)[:, None] / (x**2 + squares[:, None])


@dataclass(frozen=True)
class IsotopeConfig:
    """Satellite produced by one substituted light-isotope neighbour.

    reference.ini's amplitude ratio 0.33 models four equivalent neighbour
    sites at natural light-isotope abundance (4 x 0.076/0.924); it is
    configurable because observed ratios are sample dependent.
    """

    splitting: float
    satellite_ratio: float
    enabled: bool

    def __post_init__(self) -> None:
        if not np.isfinite(self.splitting):
            raise ValueError("isotope splitting must be finite")
        if self.satellite_ratio < 0:
            raise ValueError("satellite ratio must be nonnegative")


@dataclass(frozen=True)
class Spectrum:
    """Absorbance sampled on a strictly ascending wavenumber grid."""

    grid: NDArray[np.float64]
    absorbance: NDArray[np.float64]

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        absorbance = np.asarray(self.absorbance, dtype=float)
        if grid.shape != absorbance.shape or grid.ndim != 1:
            raise ValueError("grid and absorbance must be 1-d arrays of equal length")
        if len(grid) > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly ascending")
        grid.setflags(write=False)
        absorbance.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "absorbance", absorbance)


def boltzmann_weights(
    levels_hf: list[HFLevel], temperature: float
) -> dict[tuple[int, int, float], float]:
    """Thermal occupation per (n, sigma, m_z) label, normalized to sum 1."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    energies = np.array([h.energy for h in levels_hf])
    weights = np.exp(-(energies - energies.min()) / (KB_CM_PER_K * temperature))
    weights /= weights.sum()
    return {(h.n, h.sigma, h.m_z): float(w) for h, w in zip(levels_hf, weights)}


def transition_lines(
    levels_hf: list[HFLevel],
    n_init: int,
    n_final: int,
    weights: dict[tuple[int, int, float], float] | None = None,
) -> list[TransitionLine]:
    """m_z-conserving lines between two CF levels, Kramers partners merged.

    A transition (sigma_i, sigma_f, m_z) and its time-reversed copy
    (-sigma_i, -sigma_f, -m_z) have identical energy; only the canonical
    member of each pair is returned, carrying its branch pair.  When
    ``weights`` (from ``boltzmann_weights``) is given, each line carries the
    summed occupation of its merged initial states.  A level to itself
    raises ValueError.
    """
    if n_init == n_final:
        raise ValueError(f"a transition joins two levels, got level {n_init} to itself")
    init = {(h.sigma, h.m_z): h for h in levels_hf if h.n == n_init}
    final = {(h.sigma, h.m_z): h for h in levels_hf if h.n == n_final}
    if not init or not final:
        missing = n_init if not init else n_final
        raise ValueError(f"no hyperfine levels found for CF index {missing}")
    doublet_i = len({s for s, _ in init}) == 2
    doublet_f = len({s for s, _ in final}) == 2

    lines = []
    seen = set()
    for si, m_z in sorted(init, key=lambda t: (-t[0], t[1])):
        for sf in sorted({s for s, _ in final}, reverse=True):
            key = (si, sf, m_z)
            # time-reversed copy; for singlet-singlet it is the -m_z line of
            # the same branches, which stays a line of its own
            if doublet_i or doublet_f:
                partner = (-si if doublet_i else si, -sf if doublet_f else sf, -m_z)
            else:
                partner = key
            if partner in seen:
                continue
            seen.add(key)
            energy = final[(sf, m_z)].energy - init[(si, m_z)].energy
            intensity = None
            if weights is not None:
                intensity = weights[(n_init, si, m_z)]
                if partner != key:
                    intensity += weights[(n_init, partner[0], partner[2])]
            lines.append(TransitionLine(n_init, n_final, m_z, energy, None, intensity, (si, sf)))
    return lines


def synthesize(
    lines: list[TransitionLine],
    shape: PeakModel,
    grid: NDArray[np.float64],
    isotope: IsotopeConfig,
) -> Spectrum:
    """Sum of line profiles on a grid, each with an isotope satellite when
    ``isotope.enabled``.

    ``shape`` supplies the profile type, FWHM and the amplitude scale; each
    line is placed at its energy with height shape.amplitude x intensity
    (unit intensity when unspecified).  A Gaussian peak is evaluated only
    within ``GAUSSIAN_REACH`` FWHM of its center, beyond which it is exactly
    0.0, so the sum equals the full-grid one bit for bit.  A Lorentzian, or a
    Gaussian with FWHM outside (1e-150, 1e150), where FWHM^2 is not a normal
    float, spans the whole grid.  A line whose (or whose satellite's) energy
    or height is not finite raises ValueError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    windowed = shape.shape == "gaussian" and 1e-150 < shape.fwhm < 1e150
    reach = shape.fwhm * GAUSSIAN_REACH if windowed else math.inf
    peaks = []
    for line in lines:
        height = shape.amplitude * (1.0 if line.intensity is None else line.intensity)
        peaks.append((line, line.energy, height))
        if isotope.enabled:
            peaks.append((line, line.energy + isotope.splitting, height * isotope.satellite_ratio))
    for line, center, height in peaks:
        if not (math.isfinite(center) and math.isfinite(height)):
            raise ValueError(f"{line} has a non-finite energy or height")
    centers = np.array([center for _, center, _ in peaks])
    starts = np.searchsorted(grid, centers - reach).tolist()
    stops = np.searchsorted(grid, centers + reach, side="right").tolist()
    total = np.zeros_like(grid)
    for (_, center, height), lo, hi in zip(peaks, starts, stops):
        if lo < hi:
            total[lo:hi] += PeakModel(shape.shape, center, shape.fwhm, height).profile(grid[lo:hi])
    return Spectrum(grid, total)
