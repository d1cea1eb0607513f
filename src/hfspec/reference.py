"""Reference model constants for Ho3+ in LiYF4.

The CF coefficients were refined against low-temperature THz and far-infrared
measurements of the hyperfine-resolved transitions among the lowest three
levels of the ground J = 8 manifold, combined with higher-level energies and
the doublet magnetic moments.  The dipolar and quadrupolar hyperfine
constants come from the same analysis.  All energies in cm^-1.
"""

from .angular import SpinSystem
from .hamiltonian import CFParameters, HyperfineConstants

#: Ho3+ electronic ground multiplet and the I = 7/2 holmium nuclear spin
HO_LIYF4 = SpinSystem(j=8.0, i=3.5)

CF_HO_LIYF4 = CFParameters(
    b20=-2.66e-1,
    b40=1.68e-3,
    b44=2.81e-2,
    b60=5.74e-6,
    b64=5.60e-4,
    b6m4=0.0,
)

HYPERFINE_HO_LIYF4 = HyperfineConstants(a_j=0.02703, b_quad=0.04)
