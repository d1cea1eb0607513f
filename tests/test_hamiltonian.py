import numpy as np
import pytest

from hfspec.angular import SpinSystem, build_jplus, build_jz, build_stevens, OperatorMatrix
from hfspec.hamiltonian import (
    CFParameters,
    HyperfineConstants,
    LabelingError,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    diagonalize,
    hf_levels_exact,
)

ZERO_CF = CFParameters(0.0, 0.0, 0.0, 0.0, 0.0)


def test_zero_parameters_give_zero_matrix(system):
    h = build_cf_hamiltonian(ZERO_CF, system)
    assert np.max(np.abs(h.matrix)) == 0.0


def test_single_term_linearity(system):
    h = build_cf_hamiltonian(CFParameters(1.0, 0.0, 0.0, 0.0, 0.0), system)
    assert np.array_equal(h.matrix, build_stevens(2, 0, system.j).matrix)


def test_reference_spectrum_span(cf_params, system):
    vals, _ = diagonalize(build_cf_hamiltonian(cf_params, system))
    vals = vals - vals[0]
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(303.37, abs=5.0)


def test_diagonalize_sorted_and_orthonormal():
    op = OperatorMatrix(np.diag([3.0, 1.0, 2.0]))
    vals, vecs = diagonalize(op)
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(3))) < 1e-10

    flip = OperatorMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    vals, _ = diagonalize(flip)
    assert np.allclose(vals, [-1.0, 1.0])


def test_diagonalize_rejects_non_hermitian():
    op = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        diagonalize(op)


def test_reference_level_structure(levels):
    assert len(levels) == 13
    doublets = [lv for lv in levels if lv.degeneracy == 2]
    assert len(doublets) == 4
    assert [lv.n for lv in doublets] == [1, 6, 8, 12]
    assert all(lv.irrep == "G34" for lv in doublets)
    assert sum(lv.degeneracy for lv in levels) == 17


def test_reference_ground_doublet_moment(levels):
    ground = levels[0]
    assert ground.irrep == "G34"
    assert ground.jz_expect == pytest.approx(5.40, abs=0.1)
    assert ground.jz_branch(-1) == pytest.approx(-ground.jz_expect)


def test_reference_level6_moment(levels):
    lv6 = levels[5]
    assert lv6.energy == pytest.approx(72.10, abs=1.0)
    assert lv6.jz_expect == pytest.approx(-3.59, abs=0.1)


def test_zero_cf_all_degenerate(system):
    lvls = cf_levels(ZERO_CF, system)
    assert sum(lv.degeneracy for lv in lvls) == 17
    assert all(lv.energy == 0.0 for lv in lvls)


def test_classify_deterministic(cf_params, system):
    a = cf_levels(cf_params, system)
    b = cf_levels(cf_params, system)
    for lva, lvb in zip(a, b):
        assert (lva.n, lva.irrep, lva.degeneracy) == (lvb.n, lvb.irrep, lvb.degeneracy)
        assert lva.jz_expect == lvb.jz_expect
        for sigma in lva.vectors:
            assert np.array_equal(lva.vectors[sigma], lvb.vectors[sigma])


def test_joint_b44_b64_sign_flip_preserves_spectrum(cf_params, system):
    # conjugating with exp(i pi/4 J_z) flips the sign of every q = +/-4
    # coefficient at once, so the joint flip is an exact spectral symmetry
    flipped = CFParameters(
        b20=cf_params.b20,
        b40=cf_params.b40,
        b44=-cf_params.b44,
        b60=cf_params.b60,
        b64=-cf_params.b64,
        b6m4=-cf_params.b6m4,
    )
    ref, _ = diagonalize(build_cf_hamiltonian(cf_params, system))
    alt, _ = diagonalize(build_cf_hamiltonian(flipped, system))
    assert np.max(np.abs(ref - alt)) < 1e-9


def test_b6m4_conjugation_flip_preserves_spectrum(cf_params, system):
    bumped = CFParameters(cf_params.b20, cf_params.b40, cf_params.b44,
                          cf_params.b60, cf_params.b64, b6m4=2e-3)
    flipped = CFParameters(cf_params.b20, cf_params.b40, cf_params.b44,
                           cf_params.b60, cf_params.b64, b6m4=-2e-3)
    ref, _ = diagonalize(build_cf_hamiltonian(bumped, system))
    alt, _ = diagonalize(build_cf_hamiltonian(flipped, system))
    assert np.max(np.abs(ref - alt)) < 1e-9


def test_broken_symmetry_rejected(system):
    # an off-symmetry coupling (here Delta M = 1) mixes the M mod 4 sectors
    from hfspec.angular import build_jminus
    from hfspec.hamiltonian import SymmetryError, classify_levels

    broken = build_stevens(2, 0, system.j).matrix + 0.3 * (
        build_jplus(system.j).matrix + build_jminus(system.j).matrix
    )
    vals, vecs = np.linalg.eigh(broken)
    with pytest.raises(SymmetryError):
        classify_levels(vals, vecs, system)


def test_hf_spin_half_pair():
    sys = SpinSystem(0.5, 0.5)
    h = build_hf_hamiltonian(HyperfineConstants(1.0, 0.0), sys)
    vals = np.linalg.eigvalsh(h.matrix)
    assert np.allclose(np.sort(vals), [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_quadrupole_needs_large_enough_spins():
    with pytest.raises(ValueError, match="quadrupolar"):
        build_hf_hamiltonian(HyperfineConstants(0.0, 1.0), SpinSystem(0.5, 0.5))


def test_quadrupole_part_traceless(system):
    h = build_hf_hamiltonian(HyperfineConstants(0.0, 1.0), system)
    assert abs(np.trace(h.matrix)) < 1e-9
    assert h.hermiticity_defect() < 1e-12


def test_first_order_product_shift(levels, system):
    # <1+, m| H_HF |1+, m> = a_j <J_z> m for the pure product state
    a_j = 0.02703
    h = build_hf_hamiltonian(HyperfineConstants(a_j, 0.0), system)
    ground = levels[0]
    for k, m in enumerate(system.m_i):
        nuc = np.zeros(system.dim_i)
        nuc[k] = 1.0
        product = np.kron(ground.vectors[+1], nuc)
        shift = np.real(product.conj() @ h.matrix @ product)
        assert shift == pytest.approx(a_j * ground.jz_expect * m, abs=1e-12)


def test_hf_levels_zero_coupling_replicates_cf(cf_params, system):
    lvls = cf_levels(cf_params, system)
    hf = hf_levels_exact(cf_params, HyperfineConstants(0.0, 0.0), system)
    assert len(hf) == 136
    by_level = {lv.n: lv for lv in lvls}
    for h in hf:
        assert h.energy == pytest.approx(by_level[h.n].energy, abs=1e-9)
        assert h.correction == pytest.approx(0.0, abs=1e-9)
    for lv in lvls:
        count = sum(1 for h in hf if h.n == lv.n)
        assert count == lv.degeneracy * system.dim_i


def test_ground_ladder_spacing(hf_levels):
    ladder = sorted(
        (h for h in hf_levels if h.n == 1 and h.sigma == +1), key=lambda h: h.m_z
    )
    spacings = np.diff([h.energy for h in ladder])
    assert np.mean(spacings) == pytest.approx(0.146, abs=0.003)


def test_kramers_pairing(hf_levels):
    energies = np.sort([h.energy for h in hf_levels])
    gaps = np.abs(energies[0::2] - energies[1::2])
    assert np.max(gaps) < 1e-9


def test_kramers_partner_labels_degenerate(hf_levels):
    table = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels}
    for (n, sigma, m_z), energy in table.items():
        partner = table[(n, -sigma if (n, -sigma, -m_z) in table else sigma, -m_z)]
        assert abs(energy - partner) < 1e-9


def test_labeling_error_when_coupling_too_strong(cf_params, system):
    with pytest.raises(LabelingError):
        hf_levels_exact(cf_params, HyperfineConstants(5.0, 0.0), system)


def test_selection_rules_on_reference_eigenbasis(levels, system):
    # J_z only within a sector, J+ only from sector s to s+1 (mod 4)
    jz = build_jz(system.j).matrix
    jp = build_jplus(system.j).matrix
    sectors = np.mod(system.m_j, 4).astype(int)

    states = []
    for lv in levels:
        for sigma in lv.branches():
            vec = lv.vectors[sigma]
            weights = [np.sum(np.abs(vec[sectors == s]) ** 2) for s in range(4)]
            states.append((int(np.argmax(weights)), vec))

    for sa, va in states:
        for sb, vb in states:
            if sa != sb:
                assert abs(np.vdot(va, jz @ vb)) < 1e-10
            if sa != (sb + 1) % 4:
                assert abs(np.vdot(va, jp @ vb)) < 1e-10


def test_hf_hamiltonian_equals_inline_assembly(hyperfine, system):
    """The cached J.I and quadrupole operators leave every bit of H_HF as the
    expression written out from the operator builders."""
    j, i = system.j, system.i
    jz, jp = build_jz(j).matrix, build_jplus(j).matrix
    iz, ip = build_jz(i).matrix, build_jplus(i).matrix
    jdoti = np.kron(jz, iz) + 0.5 * (np.kron(jp, ip.conj().T) + np.kron(jp.conj().T, ip))
    denom = 2 * i * (2 * i - 1) * j * (2 * j - 1)
    eye = np.eye(system.dim)
    expected = hyperfine.a_j * jdoti + (hyperfine.b_quad / denom) * (
        3 * jdoti @ jdoti + 1.5 * jdoti - i * (i + 1) * j * (j + 1) * eye
    )
    assert np.array_equal(build_hf_hamiltonian(hyperfine, system).matrix, expected)
