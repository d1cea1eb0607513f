"""Hyperfine-resolved crystal-field spectroscopy of rare-earth ions in S4 symmetry.

Forward: build the crystal-field and electron-nuclear Hamiltonians,
diagonalize, classify levels by irrep and branch, synthesize absorbance
spectra.  Backward: fit CF coefficients and hyperfine constants to measured
transition energies and extract the quadratic hyperfine corrections from
line-list differences.
"""

from .angular import (
    OperatorMatrix,
    SpinSystem,
    build_jminus,
    build_jplus,
    build_jz,
    build_stevens,
)
from .hamiltonian import (
    CFLevel,
    CFParameters,
    HFLevel,
    HyperfineConstants,
    LabelingError,
    SymmetryError,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    classify_levels,
    diagonalize,
    hf_levels_exact,
)
from .perturbation import (
    LambdaCoefficients,
    delta_full,
    k_correction,
    lambda_from_exact,
    lambda_from_model,
)
from .spectra import (
    IsotopeConfig,
    PeakModel,
    Spectrum,
    TransitionLine,
    boltzmann_weights,
    synthesize,
    transition_lines,
)
from .analysis import (
    DifferenceSeries,
    Estimate,
    SlopeFit,
    difference_series,
    extract_lambda1,
    extract_lambda23,
    fit_peaks,
    fit_slope,
)
from .fitting import (
    ConvergenceError,
    FitResult,
    ObservationRow,
    RefractiveModel,
    TransitionDataset,
    fit_b,
    fit_cf_aj,
    fit_refractive,
    predict_lines_exact,
    predict_lines_first_order,
)
from .reference import CF_HO_LIYF4, G_J, HO_LIYF4, HYPERFINE_HO_LIYF4

__version__ = "0.1.0"
