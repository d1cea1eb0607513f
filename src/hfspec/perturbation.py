"""Closed-form hyperfine corrections: second order in the dipolar coupling,
first order in the quadrupolar coupling.

The correction of an electron-nuclear level (n, sigma, m_z) relative to its
parent crystal-field level is

    delta = a_j <n,sigma|J_z|n,sigma> m_z
          + sum over other CF states phi of (a_j^2 / dE) *
              [ |<phi|J_z|psi>|^2 m_z^2
                + 1/4 |<phi|J-|psi>|^2 (I(I+1) - m_z(m_z+1))
                + 1/4 |<phi|J+|psi>|^2 (I(I+1) - m_z(m_z-1)) ]
          + b_quad <psi|3J_z^2 - J(J+1)|psi> / (4 I(2I-1) J(2J-1)) *
              (3 m_z^2 - I(I+1))

with dE = E_n - E_phi.  The nuclear ladder factors are tied to their
electronic channel: J+ transfers one quantum from the nucleus to the electron
(intermediate m_z - 1), J- the reverse.  S4 selection rules make most matrix
elements vanish; the one formula sums them all, zeros included.  A singlet
has <J_z> = 0 exactly (``classify_levels`` sets it), so its first-order term
vanishes and its correction is even in m_z; a doublet's sigma = -1 branch at
-m_z mirrors its sigma = +1 branch at m_z.

Passing a truncated ``levels`` list restricts the intermediate-state sums:
the three-level model of the paper is this formula on ``levels[:3]``.
All energies in cm^-1.
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angular import SpinSystem, build_jminus, build_jplus, build_jz
from .hamiltonian import CFLevel, HyperfineConstants, LabelingError, hf_levels_exact


@dataclass(frozen=True)
class LambdaCoefficients:
    """Twice the m_z^2 coefficient of the hyperfine correction, per CF level.

    lambda1 is the ground doublet, lambda2 and lambda3 the first two excited
    singlets.  In the three-level model with no quadrupolar coupling the
    identity lambda2 + lambda3 = -2 lambda1 holds exactly.
    """

    lambda1: float
    lambda2: float
    lambda3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


def _level(levels: list[CFLevel], n: int) -> CFLevel:
    for lv in levels:
        if lv.n == n:
            return lv
    raise ValueError(f"level {n} not present in the supplied level list")


def _operators(system: SpinSystem):
    return build_jz(system.j).matrix, build_jplus(system.j).matrix, build_jminus(system.j).matrix


def delta_full(
    n: int,
    sigma: int,
    m_z: float | NDArray[np.float64],
    levels: list[CFLevel],
    hf: HyperfineConstants,
    system: SpinSystem,
) -> float | NDArray[np.float64]:
    """Second-order correction of level (n, sigma) along its nuclear ladder.

    ``m_z`` is one nuclear projection (a float comes back) or a 1-d array of
    them (an array of the same length comes back).  Sums over every branch
    of every other level in ``levels``; the one second-order formula, for
    doublets and singlets alike.  The matrix elements are computed once per
    intermediate state and the sum runs in level order, so each entry is
    bit-identical whether evaluated alone or along a whole ladder.  Raises
    LabelingError when another level has the same energy.
    """
    level = _level(levels, n)
    if sigma not in level.vectors:
        raise ValueError(f"level {n} has no sigma={sigma:+d} branch")
    scalar = np.ndim(m_z) == 0
    m_z = np.atleast_1d(np.asarray(m_z, dtype=float))
    jz, jp, jm = _operators(system)
    psi = level.vectors[sigma]
    jz_psi, jm_psi, jp_psi = jz @ psi, jm @ psi, jp @ psi
    j, i = system.j, system.i
    # nuclear factors paired with the J- and J+ channels
    fm, fp = i * (i + 1) - m_z * (m_z + 1), i * (i + 1) - m_z * (m_z - 1)
    m2 = m_z**2

    # per intermediate branch, as scalars: a_j^2 / dE and the J_z, J-, J+ elements
    rows = []
    for other in levels:
        if other.n == n:
            continue
        de = level.energy - other.energy
        # levels of one cluster share its mean energy exactly (classify_levels)
        if de == 0.0:
            raise LabelingError(
                f"levels {n} and {other.n} are degenerate: perturbative "
                "correction diverges"
            )
        for sig2 in other.branches():
            phi = other.vectors[sig2]
            el_z = abs(np.vdot(phi, jz_psi)) ** 2
            el_m = abs(np.vdot(phi, jm_psi)) ** 2
            el_p = abs(np.vdot(phi, jp_psi)) ** 2
            rows.append((hf.a_j**2 / de, el_z, 0.25 * el_m, 0.25 * el_p))
    coef, el_z, el_m, el_p = np.array(rows).reshape(-1, 4, 1).transpose(1, 0, 2)
    delta = hf.a_j * (sigma * level.jz_expect) * m_z
    # one term per intermediate branch, added in level order
    for term in coef * (el_z * m2 + el_m * fm + el_p * fp):
        delta += term
    quad = 0.0
    if hf.b_quad != 0.0:
        o20 = float(np.real(psi.conj() @ (3 * jz @ jz) @ psi)) - j * (j + 1)
        quad = hf.b_quad * o20 / (4 * i * (2 * i - 1) * j * (2 * j - 1)) * (3 * m2 - i * (i + 1))
    delta = delta + quad
    return float(delta[0]) if scalar else delta


def quadratic_m2_coefficient(
    m_values: NDArray[np.float64], values: NDArray[np.float64]
) -> float:
    """Coefficient of m^2 from a least-squares quadratic a + b m + c m^2.

    Exact for data that is genuinely quadratic in m; on the symmetric
    half-integer grid the odd part drops into b without biasing c.
    """
    m_values = np.asarray(m_values, dtype=float)
    values = np.asarray(values, dtype=float)
    design = np.vstack([np.ones_like(m_values), m_values, m_values**2]).T
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(coef[2])


def lambda_from_model(
    levels: list[CFLevel], hf: HyperfineConstants, system: SpinSystem
) -> LambdaCoefficients:
    """lambda_n = 2 x (m_z^2 coefficient) of the perturbative corrections.

    Evaluated by exact quadratic regression of delta over all 2i+1 nuclear
    projections; the doublet uses its sigma = +1 branch.  Restricting
    ``levels`` restricts the model accordingly.
    """
    m = system.m_i
    out = []
    for n in (1, 2, 3):
        out.append(2 * quadratic_m2_coefficient(m, delta_full(n, +1, m, levels, hf, system)))
    return LambdaCoefficients(*out)


def lambda_from_exact(
    params, hf: HyperfineConstants, system: SpinSystem
) -> LambdaCoefficients:
    """Same coefficients extracted from the exactly solved spectrum."""
    hf_levels = hf_levels_exact(params, hf, system)
    m = system.m_i
    out = []
    for n in (1, 2, 3):
        corr = {h.m_z: h.correction for h in hf_levels if h.n == n and h.sigma == +1}
        values = np.array([corr[mz] for mz in m])
        out.append(2 * quadratic_m2_coefficient(m, values))
    return LambdaCoefficients(*out)
