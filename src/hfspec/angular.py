"""Angular-momentum operator matrices and Stevens operator equivalents.

All matrices are built over the basis of magnetic quantum numbers in
ascending order, M = -j ... +j, so that matrix layouts are deterministic
and reproducible.  Stevens operators follow the standard operator-equivalent
convention (tabulated polynomials in J_z, J_+, J_-); for q > 0 the
"cosine" combination (J_+^q + J_-^q) is used, for q < 0 the "sine"
combination -i(J_+^|q| - J_-^|q|).  The sign of a coefficient multiplying a
negative-q operator is therefore tied to this choice.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

#: Stevens operators provided, sufficient for an S4-symmetric crystal field.
SUPPORTED_STEVENS = ((2, 0), (4, 0), (4, 4), (4, -4), (6, 0), (6, 4), (6, -4))


def _check_spin(value: float, name: str = "j") -> float:
    """Validate an integer or half-integer spin quantum number."""
    value = float(value)
    if value < 0 or not np.isfinite(value):
        raise ValueError(f"{name} must be a nonnegative finite number, got {value}")
    if round(2 * value) != 2 * value:
        raise ValueError(f"{name} must be integer or half-integer, got {value}")
    return value


@dataclass(frozen=True)
class SpinSystem:
    """Electronic angular momentum j coupled to a nuclear spin i.

    The reference system is a Ho3+ ion in LiYF4: j = 8 within the ground
    multiplet and nuclear spin i = 7/2, giving a 17 x 8 = 136 dimensional
    electron-nuclear product space.
    """

    j: float
    i: float

    def __post_init__(self) -> None:
        _check_spin(self.j, "j")
        _check_spin(self.i, "i")

    @property
    def dim_j(self) -> int:
        return int(round(2 * self.j + 1))

    @property
    def dim_i(self) -> int:
        return int(round(2 * self.i + 1))

    @property
    def dim(self) -> int:
        """Dimension of the electron-nuclear product space."""
        return self.dim_j * self.dim_i

    @property
    def m_j(self) -> NDArray[np.float64]:
        """Electronic magnetic quantum numbers, ascending."""
        return np.arange(-self.j, self.j + 1)

    @property
    def m_i(self) -> NDArray[np.float64]:
        """Nuclear spin projections, ascending."""
        return np.arange(-self.i, self.i + 1)


@dataclass(frozen=True)
class OperatorMatrix:
    """A square complex matrix over an angular-momentum basis.

    Rows run over ascending M for a single angular momentum, or over (M, m_z)
    pairs, both ascending, on a product space.  The wrapped array is frozen
    after construction.
    """

    matrix: NDArray[np.complex128]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


# The forward model needs the same few operators on every call, so each
# builder below runs once per argument and hands every caller the same
# read-only matrix.


@lru_cache(maxsize=8)
def build_jz(j: float) -> OperatorMatrix:
    """Diagonal J_z with entries M = -j ... +j in ascending basis order."""
    j = _check_spin(j)
    return OperatorMatrix(np.diag(np.arange(-j, j + 1)).astype(complex))


@lru_cache(maxsize=8)
def build_jplus(j: float) -> OperatorMatrix:
    """Raising operator, <M+1|J+|M> = sqrt(j(j+1) - M(M+1))."""
    j = _check_spin(j)
    dim = int(round(2 * j + 1))
    m = np.arange(-j, j + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        mat[k + 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return OperatorMatrix(mat)


@lru_cache(maxsize=8)
def build_jminus(j: float) -> OperatorMatrix:
    """Lowering operator, the conjugate-transpose view of J+."""
    return OperatorMatrix(build_jplus(j).matrix.conj().T)


@lru_cache(maxsize=64)
def build_stevens(k: int, q: int, j: float) -> OperatorMatrix:
    """Stevens operator equivalent O_k^q acting within a fixed-j manifold.

    Supported (k, q) pairs are listed in ``SUPPORTED_STEVENS``; these are the
    operators allowed by S4 site symmetry.  All returned matrices are
    Hermitian and traceless.

    Args:
        k: rank (2, 4 or 6).
        q: order; q > 0 selects the (J+^q + J-^q) combination, q < 0 the
           -i(J+^|q| - J-^|q|) combination.
        j: angular momentum quantum number.

    Raises:
        ValueError: unsupported (k, q) pair or invalid j.
    """
    if (k, q) not in SUPPORTED_STEVENS:
        raise ValueError(
            f"unsupported Stevens operator (k={k}, q={q}); "
            f"supported: {sorted(SUPPORTED_STEVENS)}"
        )
    j = _check_spin(j)
    dim = int(round(2 * j + 1))
    eye = np.eye(dim, dtype=complex)
    jz = build_jz(j).matrix
    x = j * (j + 1)
    z2 = jz @ jz

    if (k, q) == (2, 0):
        mat = 3 * z2 - x * eye
    elif (k, q) == (4, 0):
        z4 = z2 @ z2
        mat = 35 * z4 - (30 * x - 25) * z2 + (3 * x**2 - 6 * x) * eye
    elif (k, q) == (6, 0):
        z4 = z2 @ z2
        z6 = z4 @ z2
        mat = (
            231 * z6
            - (315 * x - 735) * z4
            + (105 * x**2 - 525 * x + 294) * z2
            - (5 * x**3 - 40 * x**2 + 60 * x) * eye
        )
    else:
        jp4 = np.linalg.matrix_power(build_jplus(j).matrix, 4)
        jm4 = jp4.conj().T
        ladder = jp4 + jm4 if q > 0 else -1j * (jp4 - jm4)
        if k == 4:
            mat = 0.5 * ladder
        else:
            core = 11 * z2 - (x + 38) * eye
            mat = 0.25 * (ladder @ core + core @ ladder)

    return OperatorMatrix(mat)


@lru_cache(maxsize=8)
def jdoti_matrix(j: float, i: float) -> NDArray[np.complex128]:
    """Cached, read-only J.I = J_z I_z + (J+ I- + J- I+)/2 on the (M, m_z) product basis."""
    jz, jp = build_jz(j).matrix, build_jplus(j).matrix
    iz, ip = build_jz(i).matrix, build_jplus(i).matrix
    return _frozen(
        np.kron(jz, iz)
        + 0.5 * (np.kron(jp, ip.conj().T) + np.kron(jp.conj().T, ip))
    )


@lru_cache(maxsize=8)
def quadrupole_matrix(j: float, i: float) -> NDArray[np.complex128]:
    """Cached, read-only 3 (J.I)^2 + 3/2 J.I - I(I+1) J(J+1) on the product basis."""
    jdoti = jdoti_matrix(j, i)
    eye = np.eye(jdoti.shape[0])
    return _frozen(3 * jdoti @ jdoti + 1.5 * jdoti - i * (i + 1) * j * (j + 1) * eye)


def _frozen(mat: NDArray) -> NDArray:
    mat.setflags(write=False)
    return mat
