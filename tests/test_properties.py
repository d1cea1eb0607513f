"""Property tests over random S4 parameter sets around the Ho:LiYF4 reference."""

import math
import pickle

import model_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfspec import CF_HO_LIYF4, HO_LIYF4, HYPERFINE_HO_LIYF4, hamiltonian
from hfspec.config import MEASURED_LINES, bundled_path
from hfspec.datasets import read_dataset, write_dataset
from hfspec.fitting import (ObservationRow, TransitionDataset, _exact_predictor, predict_lines_exact,
                            predict_lines_first_order)
from hfspec.hamiltonian import (
    DEGENERACY_RTOL,
    CFParameters,
    HyperfineConstants,
    LabelingError,
    _product_overlaps,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    classify_levels,
    hf_levels_exact,
)
from hfspec.angular import build_jminus, build_jplus, build_jz
from hfspec.perturbation import (_delta_over_m, delta_full, lambda_from_exact, lambda_from_model,
                                 quadratic_m2_coefficient)
from hfspec.spectra import transition_lines

CF_NAMES = ("b20", "b40", "b44", "b60", "b64")
#: the three ground-state transition families, and the doublet-to-doublet 1 -> 6
LINE_FAMILIES = ((1, 2), (1, 3), (2, 3), (1, 6))

scale = st.floats(min_value=0.95, max_value=1.05)
#: CF coefficients and a_j within 5 % of the reference, b_quad near 0.04, and
#: a small b6m4 (zero at the reference), which makes H_CF complex
s4_points = st.tuples(
    st.tuples(*[scale] * len(CF_NAMES)),
    scale,
    st.floats(min_value=0.03, max_value=0.05),
    st.floats(min_value=-0.1, max_value=0.1),
)

property_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _model(point):
    cf_scale, aj_scale, b_quad, b6m4_share = point
    ref = CF_HO_LIYF4
    values = {name: getattr(ref, name) * f for name, f in zip(CF_NAMES, cf_scale)}
    cf = CFParameters(b6m4=ref.b64 * b6m4_share, b4m4=ref.b4m4, **values)
    return cf, HyperfineConstants(HYPERFINE_HO_LIYF4.a_j * aj_scale, b_quad)


@property_settings
@given(s4_points)
def test_labels_unique_and_kramers_paired(point):
    cf, hf = _model(point)
    system = HO_LIYF4
    try:
        hf_levels = hf_levels_exact(cf, hf, system)
    except LabelingError:
        return
    labels = {(h.n, h.sigma, h.m_z) for h in hf_levels}
    assert len(hf_levels) == len(labels) == system.dim
    energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels}
    for level in cf_levels(cf, system):
        if level.degeneracy == 2:
            for m in system.m_i:
                assert abs(energy[(level.n, +1, m)] - energy[(level.n, -1, -m)]) <= 1e-9


@property_settings
@given(s4_points)
def test_built_hamiltonians_are_hermitian(point):
    """H_CF is exactly Hermitian and H_HF Hermitian to rounding, so the
    eigensolver that reads one triangle sees the operator that was built."""
    cf, hf = _model(point)
    h_cf = build_cf_hamiltonian(cf, HO_LIYF4).matrix
    assert np.array_equal(h_cf, h_cf.conj().T)
    h_hf = build_hf_hamiltonian(hf, HO_LIYF4).matrix
    assert np.max(np.abs(h_hf - h_hf.conj().T)) <= 1e-15 * np.max(np.abs(h_hf))


def _delta_loop(n, m_z, levels, hf, system):
    """Reference: the second-order correction of the sigma = +1 branch at one
    m_z, summed state by state in level order with freshly built operators."""
    level = next(lv for lv in levels if lv.n == n)
    jz = build_jz(system.j).matrix
    jp = build_jplus(system.j).matrix
    jm = jp.conj().T
    psi = level.vectors[+1]
    ii1 = system.i * (system.i + 1)
    fm, fp = ii1 - m_z * (m_z + 1), ii1 - m_z * (m_z - 1)
    delta = hf.a_j * (+1 * level.jz_expect) * m_z
    for other in levels:
        if other.n == n:
            continue
        de = level.energy - other.energy
        for sig2 in other.branches():
            phi = other.vectors[sig2]
            el_z = abs(np.vdot(phi, jz @ psi)) ** 2
            el_m = abs(np.vdot(phi, jm @ psi)) ** 2
            el_p = abs(np.vdot(phi, jp @ psi)) ** 2
            delta += (hf.a_j**2 / de) * (el_z * m_z**2 + 0.25 * el_m * fm + 0.25 * el_p * fp)
    j, i = system.j, system.i
    o20 = float(np.real(psi.conj() @ (3 * jz @ jz) @ psi)) - j * (j + 1)
    denom = 4 * i * (2 * i - 1) * j * (2 * j - 1)
    return delta + hf.b_quad * o20 / denom * (3 * m_z**2 - i * (i + 1))


@property_settings
@given(s4_points)
def test_lambda_from_model_equals_per_m_regression(point):
    """All m_z at once gives the bits of a state-by-state sum at each m_z."""
    cf, hf = _model(point)
    system = HO_LIYF4
    levels = cf_levels(cf, system)
    m = system.m_i
    per_m = {n: [_delta_loop(n, mz, levels, hf, system) for mz in m] for n in (1, 2, 3)}
    for n in (1, 2, 3):
        assert [delta_full(n, +1, mz, levels, hf, system) for mz in m] == per_m[n]
    expected = tuple(2 * quadratic_m2_coefficient(m, per_m[n]) for n in (1, 2, 3))
    assert lambda_from_model(levels, hf, system).as_tuple() == expected


def _delta_over_m_scalar_loop(n, sigma, m_z, levels, hf, system):
    """Reference: ``perturbation._delta_over_m`` as it was before its m_z
    arithmetic was stacked, adding one array term per intermediate branch."""
    level = next(lv for lv in levels if lv.n == n)
    jz, jp, jm = build_jz(system.j).matrix, build_jplus(system.j).matrix, build_jminus(system.j).matrix
    psi = level.vectors[sigma]
    jz_psi, jm_psi, jp_psi = jz @ psi, jm @ psi, jp @ psi
    j, i = system.j, system.i
    fm, fp = i * (i + 1) - m_z * (m_z + 1), i * (i + 1) - m_z * (m_z - 1)
    m2 = m_z**2
    delta = hf.a_j * (sigma * level.jz_expect) * m_z
    for other in levels:
        if other.n == n:
            continue
        de = level.energy - other.energy
        for sig2 in other.branches():
            phi = other.vectors[sig2]
            el_z = abs(np.vdot(phi, jz_psi)) ** 2
            el_m = abs(np.vdot(phi, jm_psi)) ** 2
            el_p = abs(np.vdot(phi, jp_psi)) ** 2
            delta += (hf.a_j**2 / de) * (el_z * m2 + 0.25 * el_m * fm + 0.25 * el_p * fp)
    quad = 0.0
    if hf.b_quad != 0.0:
        o20 = float(np.real(psi.conj() @ (3 * jz @ jz) @ psi)) - j * (j + 1)
        quad = hf.b_quad * o20 / (4 * i * (2 * i - 1) * j * (2 * j - 1)) * (3 * m2 - i * (i + 1))
    return delta + quad


@property_settings
@given(s4_points, st.booleans())
def test_stacked_delta_is_bit_identical_to_scalar_loop(point, quadrupole):
    """Every level and branch, over the full and the three-level model, with
    and without the quadrupolar term: the same bytes as the branch-by-branch
    loop, at all m_z at once and one m_z at a time."""
    cf, hf = _model(point)
    if not quadrupole:
        hf = HyperfineConstants(hf.a_j, 0.0)
    system = HO_LIYF4
    full = cf_levels(cf, system)
    m = system.m_i
    for levels in (full, full[:3]):
        for level in levels:
            for sigma in level.branches():
                expected = _delta_over_m_scalar_loop(level.n, sigma, m, levels, hf, system)
                got = _delta_over_m(level.n, sigma, m, levels, hf, system)
                assert got.tobytes() == expected.tobytes()
                one_at_a_time = [delta_full(level.n, sigma, mz, levels, hf, system) for mz in m]
                assert np.array(one_at_a_time).tobytes() == expected.tobytes()


@property_settings
@given(s4_points)
def test_product_overlaps_equal_kron_columns(point):
    cf, hf = _model(point)
    system = HO_LIYF4
    eye = np.eye(system.dim_i)
    full = np.kron(build_cf_hamiltonian(cf, system).matrix, eye) + build_hf_hamiltonian(hf, system).matrix
    _, eigvecs = np.linalg.eigh(full)
    levels = cf_levels(cf, system)

    _, labels, branches, _ = hamiltonian._cf_point(cf, system).product_basis
    overlaps = _product_overlaps(branches, eigvecs, system)

    columns, expected_labels = [], []
    for level in levels:
        for sigma in level.branches():
            for k, m_z in enumerate(system.m_i):
                columns.append(np.kron(level.vectors[sigma], eye[k]))
                expected_labels.append((level.n, sigma, float(m_z)))
    expected = np.abs(np.array(columns).conj() @ eigvecs) ** 2
    assert labels == expected_labels
    np.testing.assert_allclose(overlaps, expected, rtol=0, atol=1e-13)


#: the bundled hf rows plus one hyperfine-averaged row and one moment row
ALL_KINDS = read_dataset(bundled_path(MEASURED_LINES)).rows + [
    ObservationRow("cf", 1, 4, None, 0.0, 0.05),
    ObservationRow("moment", 6, None, None, 0.0, 0.02),
]


@property_settings
@given(s4_points)
def test_held_cf_step_predicts_like_predict_lines_exact(point):
    """fit_b's predictor, with H_CF solved once, gives the bits of a fresh
    predict_lines_exact at every b_quad it is asked for."""
    cf, hf = _model(point)
    system = HO_LIYF4
    predict = _exact_predictor(cf, ALL_KINDS, system)
    for b_quad in (hf.b_quad, 0.0, 0.5 * hf.b_quad):
        trial = HyperfineConstants(hf.a_j, b_quad)
        try:
            expected = predict_lines_exact(cf, trial, ALL_KINDS, system)
        except LabelingError:
            with pytest.raises(LabelingError):
                predict(trial)
            continue
        assert predict(trial).tobytes() == expected.tobytes()


@property_settings
@given(s4_points)
def test_three_level_lambda_sum_rule(point):
    """In the three-level model without quadrupole, lambda2 + lambda3 = -2 lambda1."""
    cf, hf = _model(point)
    system = HO_LIYF4
    lam = lambda_from_model(cf_levels(cf, system)[:3], HyperfineConstants(hf.a_j, 0.0), system)
    assert lam.lambda2 + lam.lambda3 == pytest.approx(-2 * lam.lambda1, rel=0, abs=1e-12)


@property_settings
@given(s4_points)
def test_dataset_write_read_round_trip(tmp_path_factory, point):
    """Rows predicted at the point come back from write_dataset and
    read_dataset with their kinds, levels and m_z, and with values and
    sigmas at the 8 significant digits written."""
    cf, hf = _model(point)
    values = predict_lines_first_order(cf, hf.a_j, ALL_KINDS, HO_LIYF4)
    rows = [ObservationRow(r.kind, r.n_init, r.n_final, r.m_z, float(v), r.sigma) for r, v in zip(ALL_KINDS, values)]
    path = tmp_path_factory.mktemp("round") / "rows.csv"
    write_dataset(path, TransitionDataset(rows))
    back = read_dataset(path).rows
    assert [(r.kind, r.n_init, r.n_final, r.m_z) for r in back] == [(r.kind, r.n_init, r.n_final, r.m_z) for r in rows]
    assert [r.value for r in back] == [float(f"{r.value:.8g}") for r in rows]
    assert [r.sigma for r in back] == [r.sigma for r in rows]


@property_settings
@given(s4_points)
def test_singlets_have_no_moment(point):
    cf, _ = _model(point)
    singlets = [lv for lv in cf_levels(cf, HO_LIYF4) if lv.degeneracy == 1]
    assert singlets and all(lv.jz_expect == 0.0 for lv in singlets)


@property_settings
@given(s4_points)
def test_singlet_corrections_even_in_m(point):
    cf, hf = _model(point)
    system = HO_LIYF4
    levels = cf_levels(cf, system)
    for level in levels:
        if level.degeneracy == 1:
            for m_z in system.m_i[system.m_i > 0]:
                even = delta_full(level.n, +1, m_z, levels, hf, system)
                assert even == pytest.approx(delta_full(level.n, +1, -m_z, levels, hf, system), rel=0, abs=1e-14)


@property_settings
@given(s4_points)
def test_doublet_branches_mirror_in_m(point):
    """Time reversal: the sigma = -1 branch at -m_z has the sigma = +1 branch's correction at m_z."""
    cf, hf = _model(point)
    system = HO_LIYF4
    levels = cf_levels(cf, system)
    for level in levels:
        if level.degeneracy == 2:
            for m_z in system.m_i:
                plus = delta_full(level.n, +1, m_z, levels, hf, system)
                assert plus == pytest.approx(delta_full(level.n, -1, -m_z, levels, hf, system), rel=0, abs=1e-14)


@property_settings
@given(s4_points)
def test_lines_keep_their_branch_pair(point):
    """Each line is the energy difference of its own branch pair, bit for bit,
    and no line is listed together with its Kramers partner."""
    cf, hf = _model(point)
    system = HO_LIYF4
    try:
        hf_levels = hf_levels_exact(cf, hf, system)
    except LabelingError:
        return
    energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels}
    flip = {lv.n: -1 if lv.degeneracy == 2 else 1 for lv in cf_levels(cf, system)}
    for ni, nf in LINE_FAMILIES:
        lines = transition_lines(hf_levels, ni, nf)
        listed = {(line.branches, line.m_z) for line in lines}
        assert len(listed) == len(lines)
        for line in lines:
            si, sf = line.branches
            assert line.energy == energy[(nf, sf, line.m_z)] - energy[(ni, si, line.m_z)]
            if flip[ni] == -1 or flip[nf] == -1:
                assert ((flip[ni] * si, flip[nf] * sf), -line.m_z) not in listed


def _scale_observables(cf, hf, system):
    """What scaling the couplings must scale (energies) or leave alone (the rest):
    CF levels, each level's correction at every m_z on each branch, and, unless
    the point is refused, the labelled spectrum and the lines of LINE_FAMILIES."""
    levels = cf_levels(cf, system)
    structure = [(lv.n, lv.irrep, lv.degeneracy) for lv in levels]
    energies = [lv.energy for lv in levels]
    moments = [lv.jz_expect for lv in levels]
    for lv in levels:
        for sigma in lv.branches():
            energies += [delta_full(lv.n, sigma, m_z, levels, hf, system) for m_z in system.m_i]
    try:
        hf_levels = hf_levels_exact(cf, hf, system)
    except LabelingError:
        return "refused", structure, energies, moments
    structure += [(h.n, h.sigma, h.m_z) for h in hf_levels]
    energies += [h.energy for h in hf_levels]
    for ni, nf in LINE_FAMILIES:
        lines = transition_lines(hf_levels, ni, nf)
        structure += [(line.branches, line.m_z) for line in lines]
        energies += [line.energy for line in lines]
    return "labelled", structure, energies, moments


@property_settings
@given(s4_points, st.lists(st.floats(min_value=-12, max_value=6), min_size=3, max_size=3))
@example(((1.0,) * len(CF_NAMES), 1.0, 0.04, 0.0), [-6.0, -10.0, 6.0])
def test_model_scales_with_its_couplings(point, exponents):
    """H is homogeneous of degree 1 in (B_k^q, a_j, b_quad): scaling all of
    them by s = 10^e scales every energy by s to 1e-9 of s times the CF span,
    and changes no label, irrep, branch pair, moment or refusal; with a_j as
    drawn and three times larger, on either side of the label cut (few drawn
    points are refused at 3x; the reference, the explicit example, is)."""
    cf, hf = _model(point)
    system = HO_LIYF4
    span = cf_levels(cf, system)[-1].energy
    for a_j in (hf.a_j, 3 * hf.a_j):
        verdict, structure, energies, moments = _scale_observables(cf, HyperfineConstants(a_j, hf.b_quad), system)
        for s in 10.0 ** np.array(exponents):
            scaled_cf = CFParameters(**{name: value * s for name, value in cf.items()})
            got = _scale_observables(scaled_cf, HyperfineConstants(a_j * s, hf.b_quad * s), system)
            assert got[:2] == (verdict, structure)
            np.testing.assert_allclose(got[2], s * np.array(energies), rtol=0, atol=1e-9 * s * span)
            np.testing.assert_allclose(got[3], moments, rtol=0, atol=1e-9)


@property_settings
@given(s4_points)
def test_remembered_solves_equal_fresh_ones(point):
    """Results read back from the remembered solves are the bits of a solve
    from cold, and a refusal is raised again with the same message."""
    cf, hf = _model(point)
    system = HO_LIYF4

    def results():
        try:
            return (cf_levels(cf, system), hf_levels_exact(cf, hf, system),
                    lambda_from_exact(cf, hf, system), predict_lines_exact(cf, hf, ALL_KINDS, system))
        except LabelingError as exc:
            return str(exc)

    hamiltonian._cf_point.cache_clear()
    hamiltonian._hf_levels.cache_clear()
    cold = pickle.dumps(results())
    assert pickle.dumps(results()) == cold


def _levels_bits(levels) -> bytes:
    """Every number of CF levels, floats and vectors as their bytes."""
    return pickle.dumps([(lv.n, lv.energy, lv.irrep, lv.degeneracy, lv.jz_expect,
                          [(sigma, vec.tobytes()) for sigma, vec in lv.vectors.items()]) for lv in levels])


def _outcome(fn, *args):
    """fn(*args) pickled, or the class of the refusal it raised."""
    try:
        return pickle.dumps(fn(*args))
    except (LabelingError, hamiltonian.SymmetryError) as exc:
        return type(exc).__name__


def _energies_by_level(fn, *args):
    """{n: the sorted energies of level n's labels, as bytes} from fn(*args),
    or the class of the refusal it raised."""
    try:
        levels = fn(*args)
    except (LabelingError, hamiltonian.SymmetryError) as exc:
        return type(exc).__name__
    return {n: np.sort([h.energy for h in levels if h.n == n]).tobytes() for n in {h.n for h in levels}}


#: s4_points, with b4m4 a share of b44 and every coupling scaled by 1, 1e-8 or 1e8
oracle_points = st.tuples(s4_points, st.floats(min_value=-0.3, max_value=0.3), st.sampled_from([1.0, 1e-8, 1e8]))


def _oracle_model(point):
    (s4_point, b4m4_share, scale) = point
    cf, hf = _model(s4_point)
    values = dict(cf.items(), b4m4=cf.b44 * b4m4_share)
    return (CFParameters(**{name: value * scale for name, value in values.items()}),
            HyperfineConstants(hf.a_j * scale, hf.b_quad * scale))


@property_settings
@given(oracle_points)
def test_classify_levels_equals_the_one_at_a_time_oracle(point):
    """The batched classifier gives the bits of one SVD per (cluster, sector)
    and one phase fix per vector (``model_oracle.classify_levels``)."""
    cf, _ = _oracle_model(point)
    system = HO_LIYF4
    eigvals, eigvecs = np.linalg.eigh(build_cf_hamiltonian(cf, system).matrix)
    expected = _outcome(lambda: _levels_bits(model_oracle.classify_levels(eigvals, eigvecs, system)))
    assert _outcome(lambda: _levels_bits(classify_levels(eigvals, eigvecs, system))) == expected


@property_settings
@given(oracle_points, st.booleans())
def test_fit_b_predictor_equals_the_per_evaluation_oracle(point, zero_field):
    """fit_b's predictor, and hf_levels_exact, give the bits of a model that
    solves, labels and builds its levels afresh at every evaluation
    (``model_oracle``), and refuse where it refuses.  At zero field a whole
    CF level is one energy cluster, and which of its labels takes which of
    its rounding-split eigenvalues is arbitrary: there each level's label
    energies are the oracle's as a set, bit for bit, and each predicted row
    is within what the code calls one energy."""
    cf, hf = _oracle_model(point)
    system = HO_LIYF4
    predict = _exact_predictor(cf, ALL_KINDS, system)
    oracle = model_oracle.exact_predictor(cf, ALL_KINDS, system)
    if zero_field:
        zero = HyperfineConstants(0.0, 0.0)
        ours = _energies_by_level(hf_levels_exact, cf, zero, system)
        assert ours == _energies_by_level(model_oracle.hf_levels, cf, zero, system)
        if isinstance(ours, dict):
            energies = np.concatenate([np.frombuffer(e) for e in ours.values()])
            tol = 2 * DEGENERACY_RTOL * (energies.max() - energies.min())
            np.testing.assert_allclose(predict(zero), oracle(zero), rtol=0, atol=tol)
        return
    for b_quad in (hf.b_quad, 0.0, 0.5 * hf.b_quad):
        trial = HyperfineConstants(hf.a_j, b_quad)
        expected = _outcome(oracle, trial)
        assert _outcome(predict, trial) == expected
        assert _outcome(hf_levels_exact, cf, trial, system) == _outcome(model_oracle.hf_levels, cf, trial, system)


def _rotated(cf: CFParameters, phi: float) -> CFParameters:
    """The crystal field turned by phi about the c-axis: each (B_k^4, B_k^-4) pair turns by 4 phi."""
    c, s = math.cos(4 * phi), math.sin(4 * phi)
    return CFParameters(b20=cf.b20, b40=cf.b40, b60=cf.b60,
                        b44=c * cf.b44 + s * cf.b4m4, b4m4=c * cf.b4m4 - s * cf.b44,
                        b64=c * cf.b64 + s * cf.b6m4, b6m4=c * cf.b6m4 - s * cf.b64)


def _gauge_observables(cf, hf, system):
    """Labels and numbers that a turn about the c-axis must leave alone."""
    levels = cf_levels(cf, system)
    structure = [(lv.n, lv.irrep, lv.degeneracy) for lv in levels]
    numbers = [lv.energy for lv in levels] + [lv.jz_expect for lv in levels]
    numbers += list(lambda_from_model(levels, hf, system).as_tuple())
    try:
        hf_levels = hf_levels_exact(cf, hf, system)
    except LabelingError:
        return "refused", structure, numbers
    structure += [(h.n, h.sigma, h.m_z) for h in hf_levels]
    numbers += [h.energy for h in hf_levels]
    for ni, nf in LINE_FAMILIES:
        lines = transition_lines(hf_levels, ni, nf)
        structure += [(line.branches, line.m_z) for line in lines]
        numbers += [line.energy for line in lines]
    return "labelled", structure, numbers


@property_settings
@given(s4_points, st.floats(min_value=-0.3, max_value=0.3), st.floats(min_value=0.0, max_value=math.pi / 2))
def test_turn_about_the_c_axis_changes_nothing(point, b4m4_share, phi):
    """b4m4 is a gauge: turning the field by phi about c maps (B_4^4, B_4^-4)
    and (B_6^4, B_6^-4) through 4 phi and leaves every CF energy, irrep and
    <J_z>, lambda_from_model, the labelled spectrum and the lines of
    LINE_FAMILIES unchanged, to 1e-11 of the CF span.  The turned H_CF is
    complex, so this also runs the classifier on complex eigenvectors."""
    cf, hf = _model(point)
    cf = CFParameters(**dict(cf.items(), b4m4=cf.b44 * b4m4_share))
    system = HO_LIYF4
    span = cf_levels(cf, system)[-1].energy
    verdict, structure, numbers = _gauge_observables(cf, hf, system)
    got = _gauge_observables(_rotated(cf, phi), hf, system)
    assert got[:2] == (verdict, structure)
    np.testing.assert_allclose(got[2], numbers, rtol=0, atol=1e-11 * span)
