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

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
#: why j must be an integer: a half-integer M has no M mod 4 sector
NON_KRAMERS_ONLY = "the G1/G2/G34 level scheme covers non-Kramers ions only"

#: eigenvalues of H_CF, or of H_CF + H_HF, closer than this fraction of their span are one energy
DEGENERACY_RTOL = 1e-11
#: maximum tolerated eigenvector weight outside its M mod 4 sector
SECTOR_PURITY_TOL = 1e-8
#: lowest weight a label may have on its majority energy cluster
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
            if why := _not_finite_real(value):
                raise ValueError(f"CF parameter {name} must be {why}, got {value}")

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
        for name, value in (("a_j", self.a_j), ("b_quad", self.b_quad)):
            if why := _not_finite_real(value):
                raise ValueError(f"hyperfine constants must be {why}, got {name} = {value}")


def _not_finite_real(value: object) -> str:
    """What a model constant is not, "real" or "finite", or "" for a finite
    real number.  A complex number, numpy's too, is not real: it would make
    the Hamiltonian non-Hermitian."""
    if not isinstance(value, numbers.Real):
        return "real"
    try:
        return "" if math.isfinite(value) else "finite"
    except OverflowError:  # an integer, or a fraction, beyond the float range
        return "finite"


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
    return OperatorMatrix(_cf_matrices([params], system)[0])


def _cf_matrices(points: list[CFParameters], system: SpinSystem) -> NDArray[np.complex128]:
    """H_CF at each point, as a (points, 2j+1, 2j+1) stack.  Each matrix is
    summed from zero, B_k^q O_k^q in SUPPORTED_STEVENS order.  A zero
    coefficient adds only +-0.0, and a sum that starts from +0.0 never holds
    -0.0, so every matrix holds the bits a stack of one gives."""
    dim = system.dim_j
    mats = np.zeros((len(points), dim, dim), dtype=complex)
    coefficients = np.array([[getattr(p, name) for name in CF_COEFFICIENTS] for p in points])
    for (k, q), values in zip(SUPPORTED_STEVENS, coefficients.T[:, :, None, None]):
        mats = mats + values * build_stevens(k, q, system.j).matrix
    return mats


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
    if not float(system.j).is_integer():
        raise ValueError(f"j must be an integer, got {system.j:g}: {NON_KRAMERS_ONLY}")
    return np.mod(system.m_j, 4).astype(int)


def _new_cluster(eigvals: NDArray[np.float64]) -> NDArray[np.bool_]:
    """True where ascending ``eigvals`` start a new energy cluster: after a
    gap above DEGENERACY_RTOL x their span.  A stack is cut row by row."""
    new = np.ones(eigvals.shape, dtype=bool)
    new[..., 1:] = eigvals[..., 1:] - eigvals[..., :-1] > DEGENERACY_RTOL * (eigvals[..., -1:] - eigvals[..., :1])
    return new


class LevelArrays(NamedTuple):
    """One point's crystal-field levels as arrays, level n at index n - 1.

    ``sector`` is the M mod 4 sector of each level's sigma = +1 member (0
    for G1, 2 for G2, 3 for G34), ``jz`` its <J_z>, exactly 0.0 for a
    singlet (time reversal leaves it no moment).  ``vectors`` holds the
    phase-fixed members as read-only rows: each level's sigma = +1 member,
    followed for a doublet by its sigma = -1 member.
    """

    energy: NDArray[np.float64]
    sector: NDArray[np.int64]
    jz: NDArray[np.float64]
    vectors: NDArray[np.complex128]


def classify_levels(
    eigvals: NDArray[np.float64], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> list[LevelArrays | SymmetryError]:
    """Group a stack of crystal-field eigensystems into levels with irrep and branch labels.

    ``eigvals`` has shape (P, 2j+1) and ``eigvecs`` (P, 2j+1, 2j+1), each
    point's eigenvectors in columns; one point is a stack of one.  The stack
    is classified in one pass and gives one entry per point: its
    LevelArrays, or the SymmetryError it raises, in its place and not
    raised, so that a caller taking the points in turn raises it where one
    point at a time would.  A point's levels do not depend on the others in
    its stack, bit for bit.

    Eigenvalues closer than ``DEGENERACY_RTOL`` times their span (all of
    them when the span is 0) form one level, at any crystal-field scale.
    Each level is resolved into sector-pure members; sectors 0 and 2 give G1
    and G2 singlets with <J_z> = 0, a sector 1/3 pair gives a G34 doublet
    whose sigma = +1 branch is the sector-3 member.  Energies are shifted so
    the ground level is 0; levels are numbered n = 1, 2, ... as they are
    made, in ascending energy: in each energy cluster the G1 singlets, the
    G2 singlets, then the doublets, in ascending <J_z>.

    Every step is batched over all clusters of all points: one product gives
    each eigenvector's weight in each sector, one ``np.add.reduceat`` each
    level energy (the mean of its cluster), ``_resolve_clusters`` one
    stacked SVD per cluster size, and one division each member's phase fix,
    its largest component made real positive; clusters are numbered over the
    flattened stack, point after point.  Every number equals that of one SVD
    per (cluster, sector) and one phase fix per vector, bit for bit.

    Raises ValueError for a half-integer j (a Kramers ion).  A point gets a
    SymmetryError, which signals a symmetry-breaking Hamiltonian, when a
    non-degenerate eigenvector has mixed-sector support beyond
    ``SECTOR_PURITY_TOL``, when a degenerate level does not resolve into
    sector-pure members, or when a level's sector-3 and sector-1 members do
    not pair up (a lone eigenvector in a doublet sector among them); the
    first such cluster names it.
    """
    sectors = _sectors(system)
    jz = build_jz(system.j).matrix
    n_points, dim = eigvals.shape
    shifted = eigvals - eigvals[:, :1]
    first = _new_cluster(shifted).ravel().nonzero()[0]
    sizes = np.append(first[1:], shifted.size) - first
    point = first // dim
    energy = np.add.reduceat(shifted.ravel(), first) / sizes
    in_sector = np.arange(4)[:, None] == sectors
    # weight of each eigenvector (column) in each sector (row), point by point
    weights = in_sector @ np.abs(eigvecs) ** 2
    sector_of, impurity = weights.argmax(axis=1).ravel(), (1.0 - weights.max(axis=1)).ravel()
    # sigma_max <= Frobenius norm, so a sector of weight <= 0.25 in a cluster has no member there
    occupied = np.add.reduceat(weights.transpose(1, 0, 2).reshape(4, -1), first, axis=1).T > 0.25

    # each member's cluster, sector, place in its sector and vector (a row):
    # the eigenvector of each one-member cluster, then the resolved ones
    single = (sizes == 1).nonzero()[0]
    chunks = [(single, sector_of[first[single]], np.zeros(single.size, dtype=int),
               eigvecs[first[single] // dim, :, first[single] % dim])]
    chunks += _resolve_clusters(eigvecs, in_sector, first, sizes, occupied, jz)
    cluster, sector, index, vectors = (np.concatenate(column) for column in zip(*chunks))
    counts = np.bincount(4 * cluster + sector, minlength=4 * len(first)).reshape(-1, 4)

    errors = {}
    impure = (sizes == 1) & (impurity[first] > SECTOR_PURITY_TOL)
    split = (sizes > 1) & (counts.sum(axis=1) != sizes)
    unpaired = counts[:, SIGMA_PLUS_SECTOR] != counts[:, SIGMA_MINUS_SECTOR]
    for c in np.flatnonzero(impure | split | unpaired).tolist():
        if point[c] in errors:
            continue  # a point is refused for its first failing cluster
        if impure[c]:
            why = (f"eigenvector has weight {impurity[first[c]]:.3e} outside its "
                   f"M mod 4 sector; the Hamiltonian breaks S4 symmetry")
        elif split[c]:
            why = ("degenerate eigenspace does not decompose into M mod 4 sectors "
                   f"(cluster size {sizes[c]}, sector members {counts[c].sum()}); "
                   "the Hamiltonian breaks S4 symmetry")
        else:
            why = (f"unpaired doublet members at {float(energy[c]):.8g} cm^-1 "
                   f"(sector 3: {counts[c, SIGMA_PLUS_SECTOR]}, sector 1: {counts[c, SIGMA_MINUS_SECTOR]}); "
                   "the time-reversal partner is missing")
        errors[int(point[c])] = SymmetryError(why)

    # members in level order: per cluster the sector-0, then the sector-2
    # members, then each doublet's sector-3 member followed by its sector-1 one
    before = np.where(sector == 0, 0, counts[cluster, 0] + np.where(sector == 2, 0, counts[cluster, 2]))
    rank = before + np.where(sector % 2 == 1, 2 * index + (sector == SIGMA_MINUS_SECTOR), index)
    good = np.ones(n_points, dtype=bool)
    good[list(errors)] = False
    order = np.lexsort((rank, cluster))
    order = order[good[point[cluster[order]]]]
    fixed = _fix_phases(vectors[order])
    cluster, sector = cluster[order], sector[order]

    head = np.flatnonzero(sector != SIGMA_MINUS_SECTOR)
    level_sector = sector[head]
    level_jz = np.zeros(head.size)
    doublet = level_sector == SIGMA_PLUS_SECTOR
    plus = fixed[head[doublet]]
    level_jz[doublet] = np.real(plus.conj()[:, None, :] @ jz @ plus[:, :, None])[:, 0, 0]
    level_energy = energy[cluster[head]]
    bounds = np.searchsorted(point[cluster[head]], np.arange(n_points + 1))
    row_bounds = np.searchsorted(point[cluster], np.arange(n_points + 1))
    return [
        errors[p] if p in errors else LevelArrays(
            level_energy[lo:hi], level_sector[lo:hi], level_jz[lo:hi], fixed[row_lo:row_hi]
        )
        for p, lo, hi, row_lo, row_hi in zip(
            range(n_points), bounds.tolist(), bounds[1:].tolist(), row_bounds.tolist(), row_bounds[1:].tolist()
        )
    ]


def _resolve_clusters(
    eigvecs: NDArray[np.complex128],
    in_sector: NDArray[np.bool_],
    first: NDArray[np.int64],
    sizes: NDArray[np.int64],
    occupied: NDArray[np.bool_],
    jz: NDArray[np.complex128],
) -> list[tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.int64], NDArray[np.complex128]]]:
    """Resolve every degenerate cluster into sector-pure orthonormal
    vectors: per cluster size, each member's cluster, sector, place in its
    sector and vector (a row).

    Projecting a cluster's eigenvectors onto one M mod 4 sector and keeping
    the left singular vectors with singular value above 0.5 recovers the
    symmetry-adapted basis however the eigensolver mixed the degenerate
    states; for a G34 doublet this coincides with diagonalizing J_z on the
    pair.  Those vectors are zero outside the sector by construction.  The
    projections of all clusters of one size, of every point, onto each
    sector they occupy (``occupied``, cluster x sector) go to one stacked
    SVD, which makes the same LAPACK call on each matrix as an SVD of that
    projection alone.  Where one cluster holds several doublets, a member's
    place in its sector follows <J_z>, ascending in sector 3 and descending
    in sector 1, taken on the SVD's column as one SVD would give it.
    """
    dim = eigvecs.shape[-1]
    chunks = []
    for size in sorted(set(sizes[sizes > 1].tolist())):
        cluster, sector = np.nonzero(occupied & (sizes == size)[:, None])
        columns = (first[cluster] % dim)[:, None] + np.arange(size)
        stacked = eigvecs[(first[cluster] // dim)[:, None], :, columns].transpose(0, 2, 1)
        u, sv, _ = np.linalg.svd(np.where(in_sector[sector][:, :, None], stacked, 0.0), full_matrices=False)
        count = np.sum(sv > 0.5, axis=1)
        pair = np.repeat(np.arange(cluster.size), count)
        column = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
        index = column.copy()
        for p in np.flatnonzero((count > 1) & (sector % 2 == 1)).tolist():
            moments = [np.real(u[p, :, k].conj() @ jz @ u[p, :, k]) for k in range(count[p])]
            if sector[p] == SIGMA_MINUS_SECTOR:
                moments = [-moment for moment in moments]
            index[pair == p] = np.argsort(sorted(range(count[p]), key=moments.__getitem__))
        chunks.append((cluster[pair], sector[pair], index, u[pair, :, column]))
    return chunks


def _fix_phases(vectors: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The rows of ``vectors``, read-only, each rotated by a global phase so
    its largest component is real positive.  The phase is p / hypot(p): the
    scalar p / abs(p), bit for bit, which the array abs is not."""
    pivots = vectors[np.arange(len(vectors)), np.argmax(np.abs(vectors), axis=1)]
    fixed = vectors / (pivots / np.hypot(pivots.real, pivots.imag))[:, None]
    fixed.setflags(write=False)
    return fixed


class _SolvedCF:
    """H_CF at one parameter point, solved and classified, with the CF x
    nuclear product states built on it; ``label`` solves H_CF + H_HF at the
    point.  ``fit_b`` holds one point and calls ``label`` at every evaluation.

    ``levels`` holds the point's LevelArrays.  The product states are labelled
    (n, sigma, m_z), over levels, then branches (sigma = +1 first), then m_z
    ascending.  ``kron`` is kron(H_CF, 1); ``branches`` the conjugated
    branch vectors, one row per (level, sigma), in label order, for
    ``_product_overlaps``; ``parents`` the CF energy of each label's level.
    """

    def __init__(self, params: CFParameters, system: SpinSystem) -> None:
        self.system = system
        matrix = build_cf_hamiltonian(params, system).matrix
        eigvals, eigvecs = np.linalg.eigh(matrix)
        self.e_ground = eigvals[0]
        (levels,) = classify_levels(eigvals[None], eigvecs[None], system)
        if isinstance(levels, SymmetryError):
            raise levels
        self.levels = levels
        self.kron = np.kron(matrix, np.eye(system.dim_i))
        self.branches = levels.vectors.conj()
        # (n, sigma, CF energy) of each row of branches
        rows = [(n, sigma, energy)
                for n, (energy, sector) in enumerate(zip(levels.energy.tolist(), levels.sector.tolist()), 1)
                for sigma in ((+1, -1) if sector == SIGMA_PLUS_SECTOR else (+1,))]
        m_i = [float(m_z) for m_z in system.m_i]
        self.labels = [(n, sigma, m_z) for n, sigma, _ in rows for m_z in m_i]
        self.parents = [energy for *_, energy in rows for _ in m_i]

    @cached_property
    def cf_levels(self) -> tuple[CFLevel, ...]:
        """The levels as CFLevel objects, their vectors rows of ``levels.vectors``."""
        levels, rows = [], iter(self.levels.vectors)
        for n, (energy, sector, jz) in enumerate(
                zip(self.levels.energy.tolist(), self.levels.sector.tolist(), self.levels.jz.tolist()), 1):
            if sector == SIGMA_PLUS_SECTOR:
                levels.append(CFLevel(n, energy, "G34", 2, jz, {+1: next(rows), -1: next(rows)}))
            else:
                levels.append(CFLevel(n, energy, "G1" if sector == 0 else "G2", 1, jz, {+1: next(rows)}))
        return tuple(levels)

    def label(self, hf: HyperfineConstants) -> NDArray[np.float64]:
        """Solve and label H_CF + H_HF; see ``hf_levels_exact``.  Returns the
        energy of each label, read-only, in ``labels`` order.

        Per call it builds only H_HF, adds it to the held kron(H_CF, 1),
        solves, takes one overlap product, puts each label on its majority
        energy cluster, and checks each label's weight there.
        """
        system = self.system
        eigvals, eigvecs = np.linalg.eigh(self.kron + build_hf_hamiltonian(hf, system).matrix)
        eigvals = eigvals - self.e_ground

        overlaps = _product_overlaps(self.branches, eigvecs, system)
        # eigenvalues ascend, so each energy cluster is a contiguous run of columns
        cols, weight = linear_sum_assignment(overlaps, np.flatnonzero(_new_cluster(eigvals)))
        if (failing := np.flatnonzero(weight < LABEL_CUT)).size:
            n, sigma, m_z = self.labels[failing[0]]
            raise LabelingError(
                f"ambiguous labelling: state (n={n}, sigma={sigma:+d}, m_z={m_z}) has weight "
                f"{weight[failing[0]]:.3f} < {LABEL_CUT} on its assigned energy cluster; "
                "hyperfine constants too large for perturbative labelling"
            )

        # labels already run in (n, -sigma, m_z) order
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
    return list(_cf_point(params, system).cf_levels)


def cf_level_stack(points: list[CFParameters], system: SpinSystem) -> list[LevelArrays | SymmetryError]:
    """The crystal-field levels at each of ``points``, as LevelArrays: every
    H_CF built into one stack, solved by one ``eigh`` and classified in one
    pass of ``classify_levels``.  Each entry holds the bits that its point
    gives alone, or the SymmetryError it raises, in its place and not
    raised.  Nothing is remembered."""
    eigvals, eigvecs = np.linalg.eigh(_cf_matrices(points, system))
    return classify_levels(eigvals, eigvecs, system)


def linear_sum_assignment(
    overlaps: NDArray[np.float64], starts: NDArray[np.int64]
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Each label's column, and its weight: its summed overlap on its majority energy cluster.

    ``overlaps`` holds squared overlaps, labels x eigenstates in ascending
    energy; ``starts`` the first column of each energy cluster.  Each label
    goes to the cluster where its weight is largest.  Inside it, labels in
    label order take the columns in ascending order, or descending where that
    holds more overlap: for a two-member (Kramers) cluster, the optimal
    pairing.  Raises LabelingError when every weight reaches ``LABEL_CUT``
    but a cluster is the majority cluster of a number of labels other than
    its size; a weight below the cut is the caller's to report, by label.

    Not a general assignment solver: the name stays because the benchmark
    tracer (``perfbench/tracing.py``) wraps it by name to time this step,
    until ROADMAP item 3 replaces that tracer.
    """
    weight = np.add.reduceat(overlaps, starts, axis=1)
    rows = np.arange(len(overlaps))
    cluster = np.argmax(weight, axis=1)
    weight = weight[rows, cluster]
    count = np.bincount(cluster, minlength=len(starts))
    sizes = np.diff(starts, append=len(rows))
    if weight.min() >= LABEL_CUT and np.any(count != sizes):
        c = np.argmax(count != sizes)
        raise LabelingError(
            f"ambiguous labelling: an energy cluster of {sizes[c]} eigenstates is the majority "
            f"cluster of {count[c]} labels; hyperfine constants too large for perturbative labelling"
        )
    first = np.cumsum(count) - count
    ascending = np.empty_like(rows)
    ascending[np.argsort(cluster, kind="stable")] = rows
    descending = 2 * first[cluster] + count[cluster] - 1 - ascending
    gain = np.bincount(cluster, overlaps[rows, descending] - overlaps[rows, ascending], len(starts))
    return np.where(gain[cluster] > 0, descending, ascending), weight


def _product_overlaps(
    branches: NDArray[np.complex128], eigvecs: NDArray[np.complex128], system: SpinSystem
) -> NDArray[np.float64]:
    """Squared overlap of each CF x nuclear product state with each
    eigenvector (labels x eigenstates), in ``_SolvedCF.labels`` order.

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

    Each (n, sigma, m_z) label of a CF x nuclear product state takes one
    eigenstate in the energy cluster (cut as the CF levels are, by
    ``DEGENERACY_RTOL``) that holds most of its squared overlap; see
    ``linear_sum_assignment``.  A cluster's weight does not depend on how the
    eigensolver mixed its exactly degenerate eigenstates (Kramers partners,
    whole levels at zero coupling).  A label's weights sum to 1, so where each
    reaches ``LABEL_CUT`` = 0.5, this is the optimal one-to-one assignment up
    to the pairing inside clusters of more than two members.

    Raises LabelingError when a label's majority weight falls below
    ``LABEL_CUT``, or a cluster is the majority of a wrong number of labels:
    the coupling is then too strong for perturbative labelling to mean
    anything, and we report rather than guess.

    The last point asked for is remembered, with the H_CF that ``cf_levels``
    solved there, and each call returns a fresh list of (immutable) levels.
    A refusal is not remembered: a point that cannot be labelled raises
    again on every call.
    """
    return list(_hf_levels(params, hf, system))


@lru_cache(maxsize=1)
def _hf_levels(params: CFParameters, hf: HyperfineConstants, system: SpinSystem) -> tuple[HFLevel, ...]:
    point = _cf_point(params, system)
    return tuple(
        HFLevel(n, sigma, m_z, energy, energy - parent)
        for (n, sigma, m_z), energy, parent in zip(point.labels, point.label(hf).tolist(), point.parents)
    )
