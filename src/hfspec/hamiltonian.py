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
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from .angular import (
    SUPPORTED_STEVENS,
    OperatorMatrix,
    SpinSystem,
    build_jz,
    build_stevens,
    jdoti_matrix,
    quadrupole_matrix,
)

#: sector (M mod 4) of the sigma = +1 doublet branch
SIGMA_PLUS_SECTOR = 3
SIGMA_MINUS_SECTOR = 1

#: eigenvalues of H_CF, or of H_CF + H_HF, closer than this fraction of their span are one energy
DEGENERACY_RTOL = 1e-11
#: maximum tolerated eigenvector weight outside its M mod 4 sector
SECTOR_PURITY_TOL = 1e-8
#: lowest weight a label may have on its assigned energy cluster
LABEL_CUT = 0.5
#: CFParameters field of each Stevens coefficient, in SUPPORTED_STEVENS
#: order: B_k^q is "b<k><q>", with "m" for a negative q (b4m4 is B_4^-4)
CF_COEFFICIENTS = tuple(f"b{k}{'m' if q < 0 else ''}{abs(q)}" for k, q in SUPPORTED_STEVENS)


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
        """(name, coefficient) pairs in CF_COEFFICIENTS order."""
        return [(name, getattr(self, name)) for name in CF_COEFFICIENTS]

    def terms(self) -> list[tuple[int, int, float]]:
        """(k, q, coefficient) triplets in SUPPORTED_STEVENS order."""
        return [(k, q, getattr(self, name)) for (k, q), name in zip(SUPPORTED_STEVENS, CF_COEFFICIENTS)]


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
    A singlet's is exactly 0.0: a non-degenerate level of an integer-j ion
    has no moment, by time reversal.  The vectors are made read-only on
    construction, since ``cf_levels`` hands the same levels to every caller
    at one parameter point; writing to one raises ValueError.
    """

    n: int
    energy: float
    irrep: str
    degeneracy: int
    jz_expect: float
    vectors: dict[int, NDArray[np.complex128]]

    def __post_init__(self) -> None:
        for vec in self.vectors.values():
            vec.setflags(write=False)

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
            mat = mat + value * build_stevens(k, q, system.j).matrix
    return OperatorMatrix(mat)


def quadrupole_undefined(system: SpinSystem) -> str:
    """Why the quadrupolar term is undefined on ``system``, or "" where it is defined."""
    if system.i >= 1 and system.j >= 1:
        return ""
    return f"quadrupolar coupling requires i >= 1 and j >= 1, got j={system.j}, i={system.i}"


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
        if why := quadrupole_undefined(system):
            raise ValueError(why)
        denom = 2 * i * (2 * i - 1) * j * (2 * j - 1)
        mat = mat + (hf.b_quad / denom) * quadrupole_matrix(j, i)
    return OperatorMatrix(mat)


def _sectors(system: SpinSystem) -> NDArray[np.int64]:
    return np.mod(system.m_j, 4).astype(int)


def _resolve_clusters(
    eigvecs: NDArray[np.complex128],
    in_sector: NDArray[np.bool_],
    starts: list[int],
    sizes: list[int],
    occupied: list[list[bool]],
) -> dict[int, dict[int, list[NDArray[np.complex128]]]]:
    """Resolve every degenerate cluster into sector-pure orthonormal vectors:
    {cluster: {sector: members}}.

    Projecting a cluster's eigenvectors onto one M mod 4 sector and keeping
    the left singular vectors with singular value above 0.5 recovers the
    symmetry-adapted basis however the eigensolver mixed the degenerate
    states; for a G34 doublet this coincides with diagonalizing J_z on the
    pair.  Those vectors are zero outside the sector by construction.  The
    projections of all clusters of one size onto each sector they occupy
    (``occupied``, sector x cluster) go to one stacked SVD, which makes the
    same LAPACK call on each matrix as an SVD of that projection alone.
    """
    resolved: dict[int, dict[int, list[NDArray[np.complex128]]]] = {}
    for size in sorted({size for size in sizes if size > 1}):
        pairs = [(c, s) for c, n in enumerate(sizes) if n == size for s in range(4) if occupied[s][c]]
        columns = np.array([starts[c] for c, _ in pairs])[:, None] + np.arange(size)
        mask = in_sector[[s for _, s in pairs]]
        proj = np.where(mask[:, :, None], eigvecs[:, columns].transpose(1, 0, 2), 0.0)
        u, sv, _ = np.linalg.svd(proj, full_matrices=False)
        for (c, s), u_p, count in zip(pairs, u, np.sum(sv > 0.5, axis=1).tolist()):
            if count:
                resolved.setdefault(c, {})[s] = [u_p[:, k] for k in range(count)]
    return resolved


def _fix_phases(vectors: list[NDArray[np.complex128]]) -> NDArray[np.complex128]:
    """The vectors as read-only rows, each rotated by a global phase so its
    largest component is real positive.  The phase is taken one vector at a
    time, as the scalar vec[k] / abs(vec[k]): the array abs differs from the
    scalar one in the last bit."""
    stacked = np.array(vectors)
    pivots = stacked[np.arange(len(stacked)), np.argmax(np.abs(stacked), axis=1)]
    fixed = stacked / np.array([p / abs(p) for p in pivots])[:, None]
    fixed.setflags(write=False)
    return fixed


def _new_cluster(eigvals: NDArray[np.float64]) -> NDArray[np.bool_]:
    """True where ascending ``eigvals`` start a new energy cluster: after a gap above DEGENERACY_RTOL x their span."""
    return np.concatenate(([True], np.diff(eigvals) > DEGENERACY_RTOL * (eigvals[-1] - eigvals[0])))


def classify_levels(
    eigvals: NDArray[np.float64], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> list[CFLevel]:
    """Group a crystal-field eigensystem into levels with irrep and branch labels.

    Eigenvalues closer than ``DEGENERACY_RTOL`` times their span (all of
    them when the span is 0) form one level, at any crystal-field scale.
    Each level is resolved into sector-pure members; sectors 0 and 2 give G1
    and G2 singlets with <J_z> = 0, a sector 1/3 pair gives a G34 doublet
    whose sigma = +1 branch is the sector-3 member.  Energies are shifted so
    the ground level is 0; levels are numbered n = 1, 2, ... as they are
    made, in ascending energy.

    The work is batched: one product gives every eigenvector's weight in
    each sector, one ``np.add.reduceat`` every level energy (the mean of its
    cluster), and ``_resolve_clusters`` one stacked SVD per cluster size.
    What stays per vector is the phase (``_fix_phases``) and per doublet
    <J_z>, so every number equals that of one SVD per (cluster, sector) and
    one phase fix per vector, bit for bit.

    Raises SymmetryError, which signals a symmetry-breaking Hamiltonian,
    when a non-degenerate eigenvector has mixed-sector support beyond
    ``SECTOR_PURITY_TOL``, when a degenerate level does not resolve into
    sector-pure members, or when a level's sector-3 and sector-1 members do
    not pair up (a lone eigenvector in a doublet sector among them).
    """
    sectors = _sectors(system)
    jz = build_jz(system.j).matrix
    shifted = eigvals - eigvals[0]
    first = np.flatnonzero(_new_cluster(shifted))
    starts = first.tolist()
    sizes = [stop - start for start, stop in zip(starts, starts[1:] + [len(shifted)])]
    energies = (np.add.reduceat(shifted, first) / sizes).tolist()
    in_sector = np.arange(4)[:, None] == sectors
    # weight of each eigenvector (column) in each sector (row)
    weights = in_sector @ np.abs(eigvecs) ** 2
    sector_of, impurity = np.argmax(weights, axis=0).tolist(), (1.0 - np.max(weights, axis=0)).tolist()
    # sigma_max <= Frobenius norm, so a sector of weight <= 0.25 in a cluster has no member there
    occupied = (np.add.reduceat(weights, first, axis=1) > 0.25).tolist()
    resolved = _resolve_clusters(eigvecs, in_sector, starts, sizes, occupied)

    vectors: list[NDArray[np.complex128]] = []
    made: list[tuple[float, str]] = []
    for c, (start, size, energy) in enumerate(zip(starts, sizes, energies)):
        if size == 1:
            if impurity[start] > SECTOR_PURITY_TOL:
                raise SymmetryError(
                    f"eigenvector has weight {impurity[start]:.3e} outside its "
                    f"M mod 4 sector; the Hamiltonian breaks S4 symmetry"
                )
            members = {sector_of[start]: [eigvecs[:, start]]}
        else:
            members = resolved.get(c, {})
            if (total := sum(map(len, members.values()))) != size:
                raise SymmetryError(
                    "degenerate eigenspace does not decompose into M mod 4 sectors "
                    f"(cluster size {size}, sector members {total}); "
                    "the Hamiltonian breaks S4 symmetry"
                )
        for s, irrep in ((0, "G1"), (2, "G2")):
            for vec in members.get(s, []):
                vectors.append(vec)
                made.append((energy, irrep))
        plus = members.get(SIGMA_PLUS_SECTOR, [])
        minus = members.get(SIGMA_MINUS_SECTOR, [])
        if len(plus) != len(minus):
            raise SymmetryError(
                f"unpaired doublet members at {energy:.8g} cm^-1 (sector 3: {len(plus)}, "
                f"sector 1: {len(minus)}); the time-reversal partner is missing"
            )
        # order multiple doublets within one cluster by <J_z> for determinism
        plus = sorted(plus, key=lambda v: np.real(v.conj() @ jz @ v))
        minus = sorted(minus, key=lambda v: -np.real(v.conj() @ jz @ v))
        for vp, vm in zip(plus, minus):
            vectors += [vp, vm]
            made.append((energy, "G34"))

    fixed = iter(_fix_phases(vectors))
    levels = []
    for n, (energy, irrep) in enumerate(made, 1):
        if irrep == "G34":
            vp, vm = next(fixed), next(fixed)
            levels.append(CFLevel(n, energy, irrep, 2, float(np.real(vp.conj() @ jz @ vp)), {+1: vp, -1: vm}))
        else:
            # time reversal leaves a singlet no moment; <vec|J_z|vec> is rounding noise
            levels.append(CFLevel(n, energy, irrep, 1, 0.0, {+1: next(fixed)}))
    return levels


class _SolvedCF:
    """H_CF at one parameter point, solved and classified: H_CF, its lowest
    eigenvalue and its levels, and ``product_basis``, built on first use, so
    a point that only ``cf_levels`` asks for (a ``fit_cf_aj`` step) never
    builds it.  ``label`` solves H_CF + H_HF at the point; ``fit_b`` holds
    one point and calls it at every evaluation."""

    def __init__(self, params: CFParameters, system: SpinSystem) -> None:
        self.system = system
        self.matrix = build_cf_hamiltonian(params, system).matrix
        eigvals, eigvecs = np.linalg.eigh(self.matrix)
        self.e_ground = eigvals[0]
        self.levels = tuple(classify_levels(eigvals, eigvecs, system))

    @cached_property
    def product_basis(
        self,
    ) -> tuple[NDArray[np.complex128], list[tuple[int, int, float]], NDArray[np.complex128], list[float]]:
        """(kron(H_CF, 1), labels, branches, parents) of the CF x nuclear product states.

        Labels (n, sigma, m_z) run over levels, then branches (sigma = +1
        first), then m_z ascending.  ``branches`` holds the conjugated branch
        vectors, one row per (level, sigma), for ``_product_overlaps``;
        ``parents`` the CF energy of each label's level.
        """
        system = self.system
        labels: list[tuple[int, int, float]] = []
        parents: list[float] = []
        branch_vectors = []
        for level in self.levels:
            for sigma in level.branches():
                branch_vectors.append(level.vectors[sigma])
                labels.extend((level.n, sigma, float(m_z)) for m_z in system.m_i)
                parents.extend([level.energy] * system.dim_i)
        kron = np.kron(self.matrix, np.eye(system.dim_i))
        return kron, labels, np.array(branch_vectors).conj(), parents

    def label(self, hf: HyperfineConstants) -> NDArray[np.float64]:
        """Solve and label H_CF + H_HF; see ``hf_levels_exact``.  Returns the
        energy of each label, read-only, in ``product_basis`` order.

        Per call it builds only H_HF, adds it to the held kron(H_CF, 1),
        solves, takes one overlap product and the assignment, and checks each
        label's weight on its cluster.
        """
        system = self.system
        kron, labels, branches, _ = self.product_basis
        eigvals, eigvecs = np.linalg.eigh(kron + build_hf_hamiltonian(hf, system).matrix)
        eigvals = eigvals - self.e_ground

        overlaps = _product_overlaps(branches, eigvecs, system)
        rows, cols = linear_sum_assignment(-overlaps)

        # Confidence is judged per degenerate cluster: mixing among eigenstates of
        # equal energy (Kramers pairs, or whole blocks at zero coupling) cannot
        # change any assigned energy, so the label weight is summed over the
        # cluster holding the assigned eigenstate.
        # Eigenvalues ascend, so each cluster is a contiguous run of columns.
        new_cluster = _new_cluster(eigvals)
        cluster_of = np.cumsum(new_cluster) - 1
        cluster_weight = np.add.reduceat(overlaps.T, np.flatnonzero(new_cluster))
        confidence = cluster_weight[cluster_of[cols], rows]
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

        # rows come back ascending, and labels already run in (n, -sigma, m_z) order
        energies = eigvals[cols]
        energies.setflags(write=False)
        return energies


# The two memos below remember the last point asked for.  They serve one call
# pattern: a forward model asks cf_levels, hf_levels_exact and then
# lambda_from_exact about one point in turn (perfbench's forward_scan op).
# That model part takes 4.0 ms with them and 8.3 ms with both cleared (median
# of 200 points, OpenBLAS 0.3.31 on one thread, 2-core Xeon).  fit_b does not
# use them per evaluation: it holds its point and calls label.
@lru_cache(maxsize=1)
def _cf_point(params: CFParameters, system: SpinSystem) -> _SolvedCF:
    return _SolvedCF(params, system)


def cf_levels(params: CFParameters, system: SpinSystem) -> list[CFLevel]:
    """Diagonalize H_CF and classify: the standard entry point.

    The last parameter point asked for is remembered, so asking again for
    it, here or through ``hf_levels_exact``, returns the same numbers without
    a new solve.  Each call returns a fresh list, but the levels in it are
    shared between calls, and their vectors are read-only.
    """
    return list(_cf_point(params, system).levels)


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
    branches: NDArray[np.complex128], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> NDArray[np.float64]:
    """Squared overlap of each CF x nuclear product state with each
    eigenvector (labels x eigenstates), in ``_SolvedCF.product_basis`` order.

    <vec x e_k|u> = sum over M of conj(vec[M]) u[M dim_i + k], so one product
    of the conjugated branch vectors with the eigenvectors regrouped by the
    electronic index M gives every overlap.
    """
    amp = branches @ eigvecs.reshape(system.dim_j, -1)
    return np.abs(amp.reshape(len(branches) * system.dim_i, -1)) ** 2


def hf_levels_exact(
    params: CFParameters, hf: HyperfineConstants, system: SpinSystem
) -> list[HFLevel]:
    """Full diagonalization of H_CF + H_HF on the product space, with labels.

    Every eigenstate is assigned the (n, sigma, m_z) label of the CF x nuclear
    product state it overlaps most, using an optimal one-to-one assignment so
    that each label is used exactly once.  Exactly degenerate eigenstates
    (Kramers partners, whole blocks at zero coupling) may come out of the
    eigensolver as arbitrary mixtures; mixing within one energy cluster cannot
    change any assigned energy, so confidence is judged per cluster, cut by
    the ``DEGENERACY_RTOL`` rule that groups the CF levels.

    Raises LabelingError when a label's weight on its assigned energy cluster
    falls below ``LABEL_CUT``: the hyperfine coupling is then too strong for
    perturbative labelling to mean anything, and we report rather than guess.

    The last point asked for is remembered, with the H_CF that ``cf_levels``
    solved there, and each call returns a fresh list of (immutable) levels.
    A refusal is not remembered: a point that cannot be labelled raises
    again on every call.
    """
    return list(_hf_levels(params, hf, system))


@lru_cache(maxsize=1)
def _hf_levels(params: CFParameters, hf: HyperfineConstants, system: SpinSystem) -> tuple[HFLevel, ...]:
    point = _cf_point(params, system)
    _, labels, _, parents = point.product_basis
    return tuple(
        HFLevel(n, sigma, m_z, energy, energy - parent)
        for (n, sigma, m_z), energy, parent in zip(labels, point.label(hf).tolist(), parents)
    )
