"""Crystal-field and electron-nuclear Hamiltonians, diagonalization, labelling.

Builds H_CF as a linear combination of Stevens operators, the electron-nuclear
coupling H_HF (dipolar term A_J J.I plus quadrupolar term in (J.I)^2) on the
product space, and classifies eigenstates.

Symmetry conventions
--------------------
With an S4-symmetric crystal field, every H_CF eigenvector has support on a
single residue class of M mod 4 ("sector").  Sector 0 states carry the
identity irrep (labelled G1 here), sector 2 the other one-dimensional irrep
(G2), and the sectors 1 and 3 pair up into time-conjugate doublets (G34).
Within a doublet the two members are distinguished by a branch index sigma:
sigma = +1 is the sector-3 member, which for the reference Ho3+:LiYF4
parameters is the ground-state branch with <J_z> = +5.40.  The sigma = -1
member has the opposite moment.

Energies are reported relative to the lowest crystal-field eigenvalue
throughout, for hyperfine levels as well, so that hyperfine corrections read
directly as (energy - parent CF energy).
"""

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angular import (
    OperatorMatrix,
    SpinSystem,
    jdoti_matrix,
    jz_matrix,
    quadrupole_matrix,
    stevens_matrix,
)

#: sector (M mod 4) of the sigma = +1 doublet branch
SIGMA_PLUS_SECTOR = 3
SIGMA_MINUS_SECTOR = 1

#: CF levels closer than this are treated as degenerate (doublets)
DEGENERACY_TOL = 1e-6
#: largest |A - A^dagger| entry ``diagonalize`` accepts as Hermitian
HERMITIAN_TOL = 1e-10
#: maximum tolerated eigenvector weight outside its M mod 4 sector
SECTOR_PURITY_TOL = 1e-8
#: electron-nuclear eigenvalues closer than this (cm^-1) form one energy
#: cluster when label confidence is judged.  Kept apart from DEGENERACY_TOL:
#: widening it changes which states are pooled, and with them which
#: parameter points are refused as unlabelable.
HF_CLUSTER_GAP = 1e-7
#: lowest weight a label may have on its assigned energy cluster
LABEL_CUT = 0.5


class SymmetryError(ValueError):
    """An eigenvector mixes M mod 4 sectors: the Hamiltonian breaks S4."""


class LabelingError(RuntimeError):
    """Electron-nuclear eigenstates cannot be assigned unique (n, sigma, m_z) labels."""


@dataclass(frozen=True)
class CFParameters:
    """Crystal-field coefficients B_k^q in cm^-1 multiplying the Stevens operators.

    b4m4 defaults to zero: with one q = -4 coefficient gauged away by the
    orientation freedom about the c-axis, the remaining set is what a
    transition-energy fit can determine.
    """

    b20: float
    b40: float
    b44: float
    b60: float
    b64: float
    b6m4: float = 0.0
    b4m4: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.items():
            if not np.isfinite(value):
                raise ValueError(f"CF parameter {name} must be finite, got {value}")

    def items(self) -> list[tuple[str, float]]:
        return [(name, getattr(self, name)) for name in
                ("b20", "b40", "b44", "b4m4", "b60", "b64", "b6m4")]

    def terms(self) -> list[tuple[int, int, float]]:
        """(k, q, coefficient) triplets in a fixed order."""
        return [
            (2, 0, self.b20),
            (4, 0, self.b40),
            (4, 4, self.b44),
            (4, -4, self.b4m4),
            (6, 0, self.b60),
            (6, 4, self.b64),
            (6, -4, self.b6m4),
        ]


@dataclass(frozen=True)
class HyperfineConstants:
    """Dipolar (a_j) and quadrupolar (b_quad) coupling constants in cm^-1."""

    a_j: float
    b_quad: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a_j) and np.isfinite(self.b_quad)):
            raise ValueError("hyperfine constants must be finite")


@dataclass(frozen=True)
class CFLevel:
    """One crystal-field level: energy, irrep, and doublet branch data.

    ``vectors`` maps the branch index sigma to the eigenvector over the M
    basis; singlets carry only sigma = +1.  ``jz_expect`` is <J_z> of the
    sigma = +1 branch (signed; the sigma = -1 branch has the opposite sign).
    """

    n: int
    energy: float
    irrep: str
    degeneracy: int
    jz_expect: float
    vectors: dict[int, NDArray[np.complex128]]

    def jz_branch(self, sigma: int) -> float:
        """<J_z> of one branch; zero for singlets up to numerical noise."""
        if self.degeneracy == 1:
            return self.jz_expect
        return self.jz_expect if sigma == +1 else -self.jz_expect

    def branches(self) -> tuple[int, ...]:
        return tuple(sorted(self.vectors, reverse=True))


@dataclass(frozen=True)
class HFLevel:
    """One electron-nuclear level labelled (n, sigma, m_z).

    ``energy`` is relative to the crystal-field ground level; ``correction``
    is energy minus the parent CF energy, i.e. the hyperfine shift.
    """

    n: int
    sigma: int
    m_z: float
    energy: float
    correction: float


def build_cf_hamiltonian(params: CFParameters, system: SpinSystem) -> OperatorMatrix:
    """H_CF = sum over (k, q) of B_k^q O_k^q on the 2j+1 electronic space."""
    dim = system.dim_j
    mat = np.zeros((dim, dim), dtype=complex)
    for k, q, value in params.terms():
        if value != 0.0:
            mat = mat + value * stevens_matrix(k, q, system.j)
    return OperatorMatrix(mat)


def build_hf_hamiltonian(hf: HyperfineConstants, system: SpinSystem) -> OperatorMatrix:
    """Electron-nuclear coupling on the (2j+1)(2i+1) product space.

    H = a_j J.I + b_quad / (2 I(2I-1) J(2J-1)) *
        (3 (J.I)^2 + 3/2 (J.I) - I(I+1) J(J+1))

    with J.I = J_z I_z + (J+ I- + J- I+)/2.  The product basis is ordered
    (M, m_z) lexicographically, both ascending.  The quadrupolar term is
    undefined for i < 1 or j < 1 and requires b_quad = 0 there.
    """
    j, i = system.j, system.i
    mat = hf.a_j * jdoti_matrix(j, i)
    if hf.b_quad != 0.0:
        denom = 2 * i * (2 * i - 1) * j * (2 * j - 1)
        if denom == 0.0:
            raise ValueError(
                f"quadrupolar coupling requires i >= 1 and j >= 1, got j={j}, i={i}"
            )
        mat = mat + (hf.b_quad / denom) * quadrupole_matrix(j, i)
    return OperatorMatrix(mat)


def diagonalize(op: OperatorMatrix) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian operator.

    Deterministic for identical input.  Raises ValueError if the matrix is
    not Hermitian within ``HERMITIAN_TOL``.
    """
    defect = op.hermiticity_defect()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dagger| = {defect:.3e}")
    eigvals, eigvecs = np.linalg.eigh(op.matrix)
    return eigvals, eigvecs


def _sectors(system: SpinSystem) -> NDArray[np.int64]:
    return np.mod(system.m_j, 4).astype(int)


def _sector_weights(vec: NDArray[np.complex128], sectors: NDArray[np.int64]) -> NDArray[np.float64]:
    return np.bincount(sectors, weights=np.abs(vec) ** 2, minlength=4)


def _split_cluster_by_sector(
    vecs: NDArray[np.complex128], sectors: NDArray[np.int64]
) -> dict[int, list[NDArray[np.complex128]]]:
    """Resolve a degenerate eigenspace into sector-pure orthonormal vectors.

    Projecting the cluster basis onto each M mod 4 sector and keeping the
    left singular vectors with singular value near 1 recovers the symmetry-
    adapted basis regardless of how the eigensolver mixed degenerate states.
    For a G34 doublet this coincides with diagonalizing J_z on the pair.
    """
    size = vecs.shape[1]
    members: dict[int, list[NDArray[np.complex128]]] = {}
    total = 0
    for s in range(4):
        in_sector = sectors == s
        # sigma_max <= Frobenius norm, so such a sector has no member
        if np.linalg.norm(vecs[in_sector, :]) <= 0.5:
            continue
        proj = np.zeros_like(vecs)
        proj[in_sector, :] = vecs[in_sector, :]
        u, sv, _ = np.linalg.svd(proj, full_matrices=False)
        count = int(np.sum(sv > 0.5))
        if count:
            members[s] = [u[:, c] for c in range(count)]
            total += count
    if total != size:
        raise SymmetryError(
            "degenerate eigenspace does not decompose into M mod 4 sectors "
            f"(cluster size {size}, sector members {total}); "
            "the Hamiltonian breaks S4 symmetry"
        )
    return members


def _check_purity(vec: NDArray[np.complex128], sectors: NDArray[np.int64]) -> int:
    weights = _sector_weights(vec, sectors)
    sector = int(np.argmax(weights))
    if 1.0 - weights[sector] > SECTOR_PURITY_TOL:
        raise SymmetryError(
            f"eigenvector has weight {1.0 - weights[sector]:.3e} outside its "
            f"M mod 4 sector; the Hamiltonian breaks S4 symmetry"
        )
    return sector


def _fix_phase(vec: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Rotate the global phase so the largest component is real positive."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def classify_levels(
    eigvals: NDArray[np.float64], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> list[CFLevel]:
    """Group a crystal-field eigensystem into levels with irrep and branch labels.

    Eigenvalues within ``DEGENERACY_TOL`` form one level.  Each level is
    resolved into sector-pure members; sectors 0 and 2 give G1 and G2
    singlets, a sector 1/3 pair gives a G34 doublet whose sigma = +1 branch
    is the sector-3 member.  Energies are shifted so the ground level is 0.

    Raises SymmetryError when an eigenvector has mixed-sector support beyond
    tolerance, which signals a symmetry-breaking Hamiltonian.
    """
    sectors = _sectors(system)
    jz = jz_matrix(system.j)
    shifted = eigvals - eigvals[0]

    clusters: list[list[int]] = []
    idx = 0
    while idx < len(shifted):
        group = [idx]
        while group[-1] + 1 < len(shifted) and (
            shifted[group[-1] + 1] - shifted[group[0]] < DEGENERACY_TOL
        ):
            group.append(group[-1] + 1)
        clusters.append(group)
        idx = group[-1] + 1

    levels: list[CFLevel] = []
    for group in clusters:
        energy = float(np.mean(shifted[group]))
        if len(group) == 1:
            vec = _fix_phase(eigvecs[:, group[0]])
            sector = _check_purity(vec, sectors)
            if sector in (SIGMA_PLUS_SECTOR, SIGMA_MINUS_SECTOR):
                raise SymmetryError(
                    f"non-degenerate eigenvector in doublet sector {sector}; "
                    "time-reversal partner is missing"
                )
            irrep = "G1" if sector == 0 else "G2"
            jz_exp = float(np.real(vec.conj() @ jz @ vec))
            levels.append(CFLevel(0, energy, irrep, 1, jz_exp, {+1: vec}))
        else:
            members = _split_cluster_by_sector(eigvecs[:, group], sectors)
            for s in (0, 2):
                for vec in members.get(s, []):
                    vec = _fix_phase(vec)
                    _check_purity(vec, sectors)
                    irrep = "G1" if s == 0 else "G2"
                    jz_exp = float(np.real(vec.conj() @ jz @ vec))
                    levels.append(CFLevel(0, energy, irrep, 1, jz_exp, {+1: vec}))
            plus = members.get(SIGMA_PLUS_SECTOR, [])
            minus = members.get(SIGMA_MINUS_SECTOR, [])
            if len(plus) != len(minus):
                raise SymmetryError(
                    f"unpaired doublet members in degenerate cluster "
                    f"(sector 3: {len(plus)}, sector 1: {len(minus)})"
                )
            # order multiple doublets within one cluster by <J_z> for determinism
            plus = sorted(plus, key=lambda v: np.real(v.conj() @ jz @ v))
            minus = sorted(minus, key=lambda v: -np.real(v.conj() @ jz @ v))
            for vp, vm in zip(plus, minus):
                vp, vm = _fix_phase(vp), _fix_phase(vm)
                _check_purity(vp, sectors)
                _check_purity(vm, sectors)
                jz_exp = float(np.real(vp.conj() @ jz @ vp))
                levels.append(CFLevel(0, energy, "G34", 2, jz_exp, {+1: vp, -1: vm}))

    levels.sort(key=lambda lv: lv.energy)
    return [
        CFLevel(n, lv.energy, lv.irrep, lv.degeneracy, lv.jz_expect, lv.vectors)
        for n, lv in enumerate(levels, start=1)
    ]


def cf_levels(params: CFParameters, system: SpinSystem) -> list[CFLevel]:
    """Diagonalize H_CF and classify: the standard entry point."""
    eigvals, eigvecs = diagonalize(build_cf_hamiltonian(params, system))
    return classify_levels(eigvals, eigvecs, system)


def linear_sum_assignment(
    cost: NDArray[np.float64],
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Minimum-cost one-to-one assignment of the rows of a square matrix to its columns.

    Returns (rows, cols) with row rows[k] assigned column cols[k], as
    scipy.optimize.linear_sum_assignment does.  Shortest augmenting paths
    (Jonker and Volgenant 1987, Computing 38, 325; Crouse 2016, IEEE Trans.
    Aerosp. Electron. Syst. 52, 1679): the duals start at u = row minima and
    v = 0, and each row takes its cheapest column unless an earlier row holds
    it.  Every reduced cost cost - u - v is then >= 0 and equals 0 on each
    match, so the start is optimal for the rows it matches; one Dijkstra
    search on the reduced costs adds each row still unmatched.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.size == 0:
        raise ValueError(f"cost must be a non-empty square matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    n = len(cost)
    cheapest = cost.argmin(axis=1)
    u, v = cost[np.arange(n), cheapest], np.zeros(n)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    taken, first_row = np.unique(cheapest, return_index=True)
    col4row[first_row], row4col[taken] = taken, first_row
    for start in np.flatnonzero(col4row < 0):
        _augment(cost, u, v, col4row, row4col, start)
    return np.arange(n), col4row


def _augment(
    cost: NDArray[np.float64],
    u: NDArray[np.float64],
    v: NDArray[np.float64],
    col4row: NDArray[np.int64],
    row4col: NDArray[np.int64],
    start: int,
) -> None:
    """Match row ``start`` along a shortest alternating path; update duals and matching in place."""
    n = len(v)
    shortest, path = np.full(n, np.inf), np.full(n, -1)
    rows_seen, cols_seen = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    row, reach = start, 0.0
    while True:
        rows_seen[row] = True
        via_row = reach + cost[row] - u[row] - v
        closer = ~cols_seen & (via_row < shortest)
        shortest[closer], path[closer] = via_row[closer], row
        open_cols = np.flatnonzero(~cols_seen)
        col = open_cols[np.argmin(shortest[open_cols])]
        reach = shortest[col]
        cols_seen[col] = True
        if row4col[col] < 0:
            break
        row = row4col[col]
    inner = np.flatnonzero(rows_seen)
    inner = inner[inner != start]
    u[start] += reach
    u[inner] += reach - shortest[col4row[inner]]
    v[cols_seen] -= reach - shortest[cols_seen]
    while True:  # flip the path back to start
        row = path[col]
        row4col[col] = row
        col4row[row], col = col, col4row[row]
        if row == start:
            break


def _product_overlaps(
    levels: list[CFLevel], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> tuple[list[tuple[int, int, float]], NDArray[np.float64]]:
    """Labels (n, sigma, m_z) of the CF x nuclear product states, and the
    squared overlap of each with each eigenvector (labels x eigenstates).

    Labels run over levels, then branches (sigma = +1 first), then m_z
    ascending.  <vec x e_k|u> = sum over M of conj(vec[M]) u[M dim_i + k], so
    one product of the branch vectors with the eigenvectors regrouped by the
    electronic index M gives every overlap.
    """
    labels: list[tuple[int, int, float]] = []
    branch_vectors = []
    for level in levels:
        for sigma in level.branches():
            branch_vectors.append(level.vectors[sigma])
            labels.extend((level.n, sigma, float(m_z)) for m_z in system.m_i)
    amp = np.array(branch_vectors).conj() @ eigvecs.reshape(system.dim_j, -1)
    return labels, np.abs(amp.reshape(len(labels), -1)) ** 2


def hf_levels_exact(
    params: CFParameters, hf: HyperfineConstants, system: SpinSystem
) -> list[HFLevel]:
    """Full diagonalization of H_CF + H_HF on the product space, with labels.

    Every eigenstate is assigned the (n, sigma, m_z) label of the CF x nuclear
    product state it overlaps most, using an optimal one-to-one assignment so
    that each label is used exactly once.  Exactly degenerate eigenstates
    (Kramers partners, whole blocks at zero coupling) may come out of the
    eigensolver as arbitrary mixtures; mixing within one energy cluster cannot
    change any assigned energy, so confidence is judged per cluster.

    Raises LabelingError when a label's weight on its assigned energy cluster
    falls below ``LABEL_CUT``: the hyperfine coupling is then too strong for
    perturbative labelling to mean anything, and we report rather than guess.
    """
    cf_op = build_cf_hamiltonian(params, system)
    cf_vals, cf_vecs = diagonalize(cf_op)
    levels = classify_levels(cf_vals, cf_vecs, system)
    e_ground = cf_vals[0]

    full = np.kron(cf_op.matrix, np.eye(system.dim_i)) + build_hf_hamiltonian(hf, system).matrix
    eigvals, eigvecs = np.linalg.eigh(full)
    eigvals = eigvals - e_ground

    labels, overlaps = _product_overlaps(levels, eigvecs, system)
    rows, cols = linear_sum_assignment(-overlaps)

    # Confidence is judged per degenerate cluster: mixing among eigenstates of
    # equal energy (Kramers pairs, or whole blocks at zero coupling) cannot
    # change any assigned energy, so the label weight is summed over the
    # cluster holding the assigned eigenstate.
    # Eigenvalues ascend, so each cluster is a contiguous run of columns.
    new_cluster = np.concatenate(([True], np.diff(eigvals) > HF_CLUSTER_GAP))
    cluster_of = np.cumsum(new_cluster) - 1
    cluster_weight = np.add.reduceat(overlaps, np.flatnonzero(new_cluster), axis=1)
    confidence = cluster_weight[rows, cluster_of[cols]]
    failing = np.flatnonzero(confidence < LABEL_CUT)
    if failing.size:
        first = failing[0]
        n, sigma, m_z = labels[rows[first]]
        raise LabelingError(
            f"ambiguous labelling: state (n={n}, sigma={sigma:+d}, m_z={m_z}) "
            f"has weight {confidence[first]:.3f} < {LABEL_CUT} on its assigned "
            "energy cluster; hyperfine constants too large for perturbative "
            "labelling"
        )

    by_level = {lv.n: lv for lv in levels}
    out = []
    for row, col in zip(rows, cols):
        n, sigma, m_z = labels[row]
        energy = float(eigvals[col])
        out.append(HFLevel(n, sigma, m_z, energy, energy - by_level[n].energy))
    out.sort(key=lambda h: (h.n, -h.sigma, h.m_z))
    return out
