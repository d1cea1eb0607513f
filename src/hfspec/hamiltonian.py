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
    if not float(system.j).is_integer():
        raise ValueError(f"j must be an integer, got {system.j:g}: {NON_KRAMERS_ONLY}")
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

    Raises ValueError for a half-integer j (a Kramers ion), and
    SymmetryError, which signals a symmetry-breaking Hamiltonian,
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
        solves, takes one overlap product, puts each label on its majority
        energy cluster, and checks each label's weight there.
        """
        system = self.system
        kron, labels, branches, _ = self.product_basis
        eigvals, eigvecs = np.linalg.eigh(kron + build_hf_hamiltonian(hf, system).matrix)
        eigvals = eigvals - self.e_ground

        overlaps = _product_overlaps(branches, eigvecs, system)
        # eigenvalues ascend, so each energy cluster is a contiguous run of columns
        cols, weight = linear_sum_assignment(overlaps, np.flatnonzero(_new_cluster(eigvals)))
        if (failing := np.flatnonzero(weight < LABEL_CUT)).size:
            n, sigma, m_z = labels[failing[0]]
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
    return list(_cf_point(params, system).levels)


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
    _, labels, _, parents = point.product_basis
    return tuple(
        HFLevel(n, sigma, m_z, energy, energy - parent)
        for (n, sigma, m_z), energy, parent in zip(labels, point.label(hf).tolist(), parents)
    )
