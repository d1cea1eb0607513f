"""The model core's labelling as it was written one level, one vector and one
evaluation at a time, kept as an oracle for the batched code in hfspec.

``classify_levels`` resolves each degenerate cluster sector by sector with
one SVD per (cluster, sector) and checks the purity of every member it
builds; ``exact_predictor`` solves H_CF + H_HF at every evaluation, labels
it by scipy's optimal one-to-one assignment, builds its labelled levels and
reads the rows through a dict.  Both must give the bits hfspec gives, but
for which label takes which eigenvalue inside an energy cluster of more than
two members (a whole CF level at zero coupling), a pairing the optimum does
not fix.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from hfspec.angular import build_jz
from hfspec.hamiltonian import (
    DEGENERACY_RTOL,
    LABEL_CUT,
    SECTOR_PURITY_TOL,
    SIGMA_MINUS_SECTOR,
    SIGMA_PLUS_SECTOR,
    CFLevel,
    HFLevel,
    LabelingError,
    SymmetryError,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
)


def _sectors(system):
    return np.mod(system.m_j, 4).astype(int)


def _split_cluster_by_sector(vecs, sectors):
    size = vecs.shape[1]
    members = {}
    total = 0
    for s in range(4):
        in_sector = sectors == s
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
        raise SymmetryError(f"cluster size {size}, sector members {total}")
    for sector_members in members.values():
        for vec in sector_members:
            _check_purity(vec, sectors)
    return members


def _check_purity(vec, sectors):
    weights = np.bincount(sectors, weights=np.abs(vec) ** 2, minlength=4)
    sector = int(np.argmax(weights))
    if 1.0 - weights[sector] > SECTOR_PURITY_TOL:
        raise SymmetryError(f"eigenvector has weight {1.0 - weights[sector]:.3e} outside its sector")
    return sector


def _fix_phase(vec):
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / phase


def _new_cluster(eigvals):
    return np.concatenate(([True], np.diff(eigvals) > DEGENERACY_RTOL * (eigvals[-1] - eigvals[0])))


def classify_levels(eigvals, eigvecs, system):
    sectors = _sectors(system)
    jz = build_jz(system.j).matrix
    shifted = eigvals - eigvals[0]
    levels = []
    for group in np.split(np.arange(len(shifted)), np.flatnonzero(_new_cluster(shifted))[1:]):
        energy = float(np.mean(shifted[group]))
        if len(group) == 1:
            members = {_check_purity(eigvecs[:, group[0]], sectors): [eigvecs[:, group[0]]]}
        else:
            members = _split_cluster_by_sector(eigvecs[:, group], sectors)
        for s, irrep in ((0, "G1"), (2, "G2")):
            for vec in members.get(s, []):
                levels.append(CFLevel(len(levels) + 1, energy, irrep, 1, 0.0, {+1: _fix_phase(vec)}))
        plus = members.get(SIGMA_PLUS_SECTOR, [])
        minus = members.get(SIGMA_MINUS_SECTOR, [])
        if len(plus) != len(minus):
            raise SymmetryError(f"unpaired doublet members at {energy:.8g} cm^-1")
        plus = sorted(plus, key=lambda v: np.real(v.conj() @ jz @ v))
        minus = sorted(minus, key=lambda v: -np.real(v.conj() @ jz @ v))
        for vp, vm in zip(plus, minus):
            vp, vm = _fix_phase(vp), _fix_phase(vm)
            jz_exp = float(np.real(vp.conj() @ jz @ vp))
            levels.append(CFLevel(len(levels) + 1, energy, "G34", 2, jz_exp, {+1: vp, -1: vm}))
    return levels


def cf_solve(params, system):
    """(H_CF, its lowest eigenvalue, its levels by ``classify_levels``)."""
    cf = build_cf_hamiltonian(params, system).matrix
    eigvals, eigvecs = np.linalg.eigh(cf)
    return cf, eigvals[0], classify_levels(eigvals, eigvecs, system)


def hf_levels(params, hf, system):
    """Solve and label H_CF + H_HF from scratch, one HFLevel per label."""
    cf, e_ground, levels = cf_solve(params, system)
    full = np.kron(cf, np.eye(system.dim_i)) + build_hf_hamiltonian(hf, system).matrix
    eigvals, eigvecs = np.linalg.eigh(full)
    eigvals = eigvals - e_ground
    labels, branch_vectors = [], []
    for level in levels:
        for sigma in level.branches():
            branch_vectors.append(level.vectors[sigma])
            labels.extend((level.n, sigma, float(m_z)) for m_z in system.m_i)
    amp = np.array(branch_vectors).conj() @ eigvecs.reshape(system.dim_j, -1)
    overlaps = np.abs(amp.reshape(len(labels), -1)) ** 2
    rows, cols = linear_sum_assignment(-overlaps)
    new_cluster = _new_cluster(eigvals)
    cluster_of = np.cumsum(new_cluster) - 1
    cluster_weight = np.add.reduceat(overlaps.T, np.flatnonzero(new_cluster))
    confidence = cluster_weight[cluster_of[cols], rows]
    if np.any(confidence < LABEL_CUT):
        raise LabelingError("ambiguous labelling")
    parent = {lv.n: lv.energy for lv in levels}
    return [
        HFLevel(n, sigma, m_z, energy, energy - parent[n])
        for (n, sigma, m_z), energy in zip(labels, eigvals[cols].tolist())
    ]


def exact_predictor(params, rows, system):
    """fit_b's predictor as a function of the hyperfine constants: every
    evaluation solves, builds its levels and reads them through a dict."""
    levels = cf_solve(params, system)[2]

    def predict(hf):
        energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels(params, hf, system)}
        out = np.empty(len(rows))
        for k, row in enumerate(rows):
            if row.kind == "moment":
                out[k] = levels[row.n_init - 1].jz_expect
            elif row.kind == "cf":
                diffs = [energy[(row.n_final, +1, m)] - energy[(row.n_init, +1, m)] for m in system.m_i]
                out[k] = float(np.mean(diffs))
            else:
                out[k] = energy[(row.n_final, +1, row.m_z)] - energy[(row.n_init, +1, row.m_z)]
        return out

    return predict
