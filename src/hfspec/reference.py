"""Reference model constants for Ho3+ in LiYF4, read from the bundled reference.ini.

The CF coefficients were refined against low-temperature THz and far-infrared
measurements of the hyperfine-resolved transitions among the lowest three
levels of the ground J = 8 manifold, combined with higher-level energies and
the doublet magnetic moments.  The dipolar and quadrupolar hyperfine
constants come from the same analysis.  The file is the one place these
numbers are written; the CLI's default commands read it too.
"""

from .config import REFERENCE_CONFIG, bundled_path, load_config

_REFERENCE = load_config(bundled_path(REFERENCE_CONFIG))

#: Ho3+ electronic ground multiplet and the I = 7/2 holmium nuclear spin
HO_LIYF4 = _REFERENCE.system
CF_HO_LIYF4 = _REFERENCE.cf
HYPERFINE_HO_LIYF4 = _REFERENCE.hyperfine
