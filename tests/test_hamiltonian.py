import pickle

import numpy as np
import pytest

from hfspec import hamiltonian
from hfspec.angular import SpinSystem, build_jplus, build_jz, build_stevens
from hfspec.hamiltonian import (
    CFParameters,
    HyperfineConstants,
    LabelingError,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    hf_levels_exact,
)

ZERO_CF = CFParameters(0.0, 0.0, 0.0, 0.0, 0.0)


def test_zero_parameters_give_zero_matrix(system):
    h = build_cf_hamiltonian(ZERO_CF, system)
    assert np.max(np.abs(h.matrix)) == 0.0


def test_single_term_linearity(system):
    h = build_cf_hamiltonian(CFParameters(1.0, 0.0, 0.0, 0.0, 0.0), system)
    assert np.array_equal(h.matrix, build_stevens(2, 0, system.j).matrix)



def test_one_coefficient_table():
    """CF_COEFFICIENTS names every CFParameters field once, in
    SUPPORTED_STEVENS order, and fit_cf_aj frees all but the gauged b4m4."""
    from dataclasses import fields

    from hfspec.angular import SUPPORTED_STEVENS
    from hfspec.fitting import CF_AJ_PARAM_NAMES
    from hfspec.hamiltonian import CF_COEFFICIENTS

    assert sorted(CF_COEFFICIENTS) == sorted(f.name for f in fields(CFParameters))
    params = CFParameters(1.0, 2.0, 3.0, 4.0, 5.0, b6m4=6.0, b4m4=7.0)
    assert params.terms() == [(k, q, getattr(params, name)) for (k, q), name in zip(SUPPORTED_STEVENS, CF_COEFFICIENTS)]
    assert params.terms()[3] == (4, -4, 7.0)
    assert CF_AJ_PARAM_NAMES == ("b20", "b40", "b44", "b60", "b64", "b6m4", "a_j")

def test_reference_spectrum_span(cf_params, system):
    vals = np.linalg.eigvalsh(build_cf_hamiltonian(cf_params, system).matrix)
    vals = vals - vals[0]
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(303.37, abs=5.0)


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
    # the sigma = -1 branch carries the opposite moment
    jz = build_jz(8.0).matrix
    minus = ground.vectors[-1]
    assert np.real(np.vdot(minus, jz @ minus)) == pytest.approx(-ground.jz_expect)


def test_reference_level6_moment(levels):
    lv6 = levels[5]
    assert lv6.energy == pytest.approx(72.10, abs=1.0)
    assert lv6.jz_expect == pytest.approx(-3.59, abs=0.1)


def test_zero_cf_all_degenerate(system):
    lvls = cf_levels(ZERO_CF, system)
    assert sum(lv.degeneracy for lv in lvls) == 17
    assert all(lv.energy == 0.0 for lv in lvls)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e4, 1e8])
def test_level_grouping_is_independent_of_cf_scale(cf_params, levels, system, scale):
    """Multiplying H_CF by a constant multiplies every level energy by it and
    changes no irrep, degeneracy or moment."""
    scaled = cf_levels(CFParameters(**{name: value * scale for name, value in cf_params.items()}), system)
    span = levels[-1].energy
    assert [(lv.irrep, lv.degeneracy) for lv in scaled] == [(lv.irrep, lv.degeneracy) for lv in levels]
    for lv, ref in zip(scaled, levels):
        assert lv.energy == pytest.approx(scale * ref.energy, rel=0, abs=1e-12 * scale * span)
        assert lv.jz_expect == pytest.approx(ref.jz_expect, rel=0, abs=1e-12)


def test_levels_split_at_the_relative_tolerance(system):
    """On a diagonal eigensystem spanning 100 cm^-1, two sector-0 singlets
    1e-9 of the span apart stay two levels, and a Kramers pair split by
    1e-13 of the span stays one."""
    from hfspec.hamiltonian import classify_levels

    # M -> energy: sector-3/sector-1 pairs (M, -M) are doublets, the rest singlets
    energy = {7: 0.0, -7: 0.0, -8: 10.0, 3: 20.0, -3: 20.0, -4: 30.0, -1: 40.0, 1: 40.0 + 1e-11,
              0: 50.0, 4: 50.0 + 1e-7, -5: 60.0, 5: 60.0, -6: 70.0, -2: 80.0, 2: 90.0, 6: 95.0, 8: 100.0}
    values = np.array([energy[m] for m in range(-8, 9)])
    order = np.argsort(values)
    levels = classify_levels(values[order], np.eye(system.dim_j)[:, order], system)
    assert len(levels) == 13
    assert [lv.energy for lv in levels if lv.irrep == "G1" and 49 < lv.energy < 51] == [50.0, 50.0 + 1e-7]
    pair = [lv for lv in levels if 39 < lv.energy < 41]
    assert [(lv.irrep, lv.degeneracy) for lv in pair] == [("G34", 2)]
    assert pair[0].energy == pytest.approx(40.0, rel=0, abs=1e-11)


def test_large_axial_field_is_not_refused_as_s4_breaking(cf_params, system):
    lvls = cf_levels(CFParameters(**{**dict(cf_params.items()), "b20": 1e8}), system)
    assert sum(lv.degeneracy for lv in lvls) == system.dim_j
    assert lvls[0].energy == 0.0


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
    ref = np.linalg.eigvalsh(build_cf_hamiltonian(cf_params, system).matrix)
    alt = np.linalg.eigvalsh(build_cf_hamiltonian(flipped, system).matrix)
    assert np.max(np.abs(ref - alt)) < 1e-9


def test_b6m4_conjugation_flip_preserves_spectrum(cf_params, system):
    bumped = CFParameters(cf_params.b20, cf_params.b40, cf_params.b44,
                          cf_params.b60, cf_params.b64, b6m4=2e-3)
    flipped = CFParameters(cf_params.b20, cf_params.b40, cf_params.b44,
                           cf_params.b60, cf_params.b64, b6m4=-2e-3)
    ref = np.linalg.eigvalsh(build_cf_hamiltonian(bumped, system).matrix)
    alt = np.linalg.eigvalsh(build_cf_hamiltonian(flipped, system).matrix)
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


def test_lone_vectors_in_doublet_sectors_rejected(system):
    """Seventeen non-degenerate basis vectors: M = -7 (sector 1) has no
    sector-3 partner at its energy."""
    from hfspec.hamiltonian import SymmetryError, classify_levels

    with pytest.raises(SymmetryError, match=r"unpaired doublet members at 1 cm\^-1 \(sector 3: 0, sector 1: 1\)"):
        classify_levels(np.arange(17.0), np.eye(17), system)


def test_kramers_ion_refused_with_the_reason(cf_params):
    """A half-integer j has no M mod 4 sectors: the refusal names the level
    scheme, not a missing time-reversal partner of the Hamiltonian."""
    from hfspec.hamiltonian import SymmetryError

    with pytest.raises(ValueError, match="G1/G2/G34 level scheme covers non-Kramers ions only") as excinfo:
        cf_levels(cf_params, SpinSystem(7.5, 3.5))
    assert not isinstance(excinfo.value, SymmetryError)


def test_degenerate_cluster_across_sectors_rejected(system):
    """The diagonal spectrum E = |M|, with the E = 1 pair spanned by the sums
    and the E = 2 pair by the differences of the M = +-1 and M = +-2 states:
    each pair then projects onto four members of the M mod 4 sectors, not
    two."""
    from hfspec.hamiltonian import SymmetryError, classify_levels

    m = system.m_j
    order = np.argsort(np.abs(m), kind="stable")
    eigvecs = np.eye(system.dim_j, dtype=complex)[:, order]
    e = {int(k): np.eye(system.dim_j)[:, idx] for idx, k in enumerate(m)}
    # columns 1, 2 hold the E = 1 cluster and 3, 4 the E = 2 cluster
    eigvecs[:, 1:5] = np.array([e[1] + e[2], e[-1] + e[-2], e[1] - e[2], e[-1] - e[-2]]).T / np.sqrt(2.0)
    with pytest.raises(SymmetryError, match=r"does not decompose into M mod 4 sectors \(cluster size 2, sector members 4\)"):
        classify_levels(np.abs(m)[order], eigvecs, system)


def test_singlets_with_weight_in_another_sector_rejected(system):
    """Seventeen basis vectors at energies where M and -M pair up in the
    sectors 1 and 3, so that the system classifies into 13 levels; then the
    M = 0 and M = 2 singlets are turned into each other, so that each carries
    1e-4 of its weight in the other's M mod 4 sector."""
    from hfspec.hamiltonian import SymmetryError, classify_levels

    m = system.m_j
    energy = np.where(m % 2 == 0, 20.0 + m, np.abs(m))
    order = np.argsort(energy, kind="stable")
    eigvecs = np.eye(system.dim_j, dtype=complex)
    assert len(classify_levels(energy[order], eigvecs[:, order], system)) == 13
    turned = [np.flatnonzero(m == 0)[0], np.flatnonzero(m == 2)[0]]
    c, s = np.sqrt(1.0 - 1e-4), 1e-2
    eigvecs[:, turned] = eigvecs[:, turned] @ np.array([[c, -s], [s, c]])
    with pytest.raises(SymmetryError, match=r"weight 1\.000e-04 outside its M mod 4 sector"):
        classify_levels(energy[order], eigvecs[:, order], system)


def test_doublets_sharing_one_energy_pair_m_with_minus_m(system):
    """The diagonal spectrum above with E(+-3) = E(+-1): the doublets
    (-1, 1) and (3, -3) share one energy, and each sigma = -1 member must be
    the time reverse (M -> -M) of its sigma = +1 member."""
    from hfspec.hamiltonian import classify_levels

    m = system.m_j
    energy = np.where(m % 2 == 0, 20.0 + m, np.where(np.abs(m) == 3, 1.0, np.abs(m)))
    order = np.argsort(energy, kind="stable")
    levels = classify_levels(energy[order], np.eye(system.dim_j, dtype=complex)[:, order], system)
    shared = [lv for lv in levels if lv.energy == 0.0]
    assert [lv.degeneracy for lv in shared] == [2, 2]
    for level in shared:
        np.testing.assert_array_equal(np.abs(level.vectors[-1]), np.abs(level.vectors[+1])[::-1])


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
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


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


def _lowest_label_weight(cf, hf, system):
    """Lowest weight of a label on its assigned energy cluster, computed apart
    from hf_levels_exact: kron assembly, a dense solve, scipy's assignment, and
    clusters cut at 1e-9 of the span."""
    from scipy.optimize import linear_sum_assignment

    eye = np.eye(system.dim_i)
    full = np.kron(build_cf_hamiltonian(cf, system).matrix, eye) + build_hf_hamiltonian(hf, system).matrix
    energies, vectors = np.linalg.eigh(full)
    product = np.array([np.kron(lv.vectors[sigma], eye[k]) for lv in cf_levels(cf, system)
                        for sigma in lv.branches() for k in range(system.dim_i)])
    overlaps = np.abs(product.conj() @ vectors) ** 2
    rows, cols = linear_sum_assignment(-overlaps)
    cluster = np.concatenate(([0], np.cumsum(np.diff(energies) > 1e-9 * (energies[-1] - energies[0]))))
    return min(overlaps[r, cluster == cluster[c]].sum() for r, c in zip(rows, cols))


def test_refusal_flips_where_the_lowest_label_weight_crosses_the_cut(cf_params, hyperfine, system):
    """Bisect the a_j factor between the reference (labelled) and 3x (refused):
    at the crossing, near 2.688, the lowest label weight straddles 0.5."""

    def refused(factor):
        try:
            hf_levels_exact(cf_params, HyperfineConstants(hyperfine.a_j * factor, hyperfine.b_quad), system)
        except LabelingError:
            return True
        return False

    lo, hi = 1.0, 3.0
    assert not refused(lo) and refused(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    assert 0.5 <= _lowest_label_weight(cf_params, HyperfineConstants(hyperfine.a_j * lo, hyperfine.b_quad), system) < 0.5 + 1e-6
    assert 0.5 - 1e-6 < _lowest_label_weight(cf_params, HyperfineConstants(hyperfine.a_j * hi, hyperfine.b_quad), system) < 0.5


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


# ------------------------------------------------------------ remembered solves


def test_forward_model_solves_each_hamiltonian_once(monkeypatch, cf_params, hyperfine, system):
    """Levels, hyperfine levels, both lambda routes and a spectrum at one
    point, from cold: one 17-dim H_CF solve and one 136-dim H solve."""
    from hfspec.perturbation import lambda_from_exact, lambda_from_model
    from hfspec.spectra import IsotopeConfig, PeakModel, boltzmann_weights, synthesize, transition_lines

    rows = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: rows.append(len(a)) or eigh(a, *args))
    levels = cf_levels(cf_params, system)
    hf_lvls = hf_levels_exact(cf_params, hyperfine, system)
    lambda_from_model(levels, hyperfine, system)
    lambda_from_exact(cf_params, hyperfine, system)
    lines = transition_lines(hf_lvls, 1, 3, weights=boltzmann_weights(hf_lvls, 3.5))
    grid = np.linspace(22.5, 24.1, 50)
    no_isotope = IsotopeConfig(splitting=0.0098, satellite_ratio=0.33, enabled=False)
    synthesize(lines, PeakModel("gaussian", 0.0, 0.009, 1.0), grid, no_isotope)
    assert rows == [system.dim_j, system.dim]


def test_returned_lists_are_fresh(cf_params, hyperfine, system):
    """A caller emptying or refilling a result does not reach the next caller."""
    levels = cf_levels(cf_params, system)
    expected = list(levels)
    levels.clear()
    assert cf_levels(cf_params, system) == expected
    hf_lvls = hf_levels_exact(cf_params, hyperfine, system)
    expected = list(hf_lvls)
    hf_lvls[0] = None
    assert hf_levels_exact(cf_params, hyperfine, system) == expected


def test_level_vectors_are_read_only(levels):
    for level in levels:
        for vec in level.vectors.values():
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0


def test_refused_point_is_refused_again(cf_params, hyperfine, system):
    """A LabelingError is not remembered: the point raises on every call,
    and a good point solved after it gives its cold-cache bits."""
    cold = pickle.dumps(hf_levels_exact(cf_params, hyperfine, system))
    # forget it, so that the good point below is solved after the refusals
    hamiltonian._cf_point.cache_clear()
    hamiltonian._hf_levels.cache_clear()
    strong = HyperfineConstants(5.0, 0.0)
    for _ in range(2):
        with pytest.raises(LabelingError):
            hf_levels_exact(cf_params, strong, system)
    assert pickle.dumps(hf_levels_exact(cf_params, hyperfine, system)) == cold


@pytest.mark.parametrize("a_j, b_quad", [(0.0, 0.0), (0.02703, 0.04), (0.05, -0.04)])
def test_hf_levels_come_in_label_order(cf_params, system, a_j, b_quad):
    """hf_levels_exact returns its levels in (n, -sigma, m_z) order without sorting."""
    keys = [(h.n, -h.sigma, h.m_z) for h in hf_levels_exact(cf_params, HyperfineConstants(a_j, b_quad), system)]
    assert keys == sorted(keys) and len(set(keys)) == system.dim
