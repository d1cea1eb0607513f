"""Hyperfine-resolved crystal-field spectroscopy of rare-earth ions in S4 symmetry.

Forward: build the crystal-field and electron-nuclear Hamiltonians,
solve them, classify levels by irrep and branch, synthesize absorbance
spectra.  Backward: fit CF coefficients and hyperfine constants to measured
transition energies and extract the quadratic hyperfine corrections from
line-list differences.

The package re-exports only the names below; everything else is imported
from its module (``hfspec.angular.build_jz``, ``hfspec.fitting.FitResult``).
"""

from .hamiltonian import (
    CFParameters,
    HyperfineConstants,
    LabelingError,
    SymmetryError,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    hf_levels_exact,
)
from .perturbation import lambda_from_exact, lambda_from_model
from .spectra import PeakModel, Spectrum, TransitionLine, boltzmann_weights, synthesize, transition_lines
from .analysis import difference_series, extract_lambda1, extract_lambda23, fit_peaks
from .fitting import (
    ConvergenceError,
    fit_b,
    fit_cf_aj,
    predict_lines_exact,
    predict_lines_first_order,
)
from .config import CF_HO_LIYF4, HO_LIYF4, HYPERFINE_HO_LIYF4

__version__ = "0.1.0"
