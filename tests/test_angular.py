import numpy as np
import pytest

from hfspec.angular import (
    SUPPORTED_STEVENS,
    OperatorMatrix,
    SpinSystem,
    build_jminus,
    build_jplus,
    build_jz,
    build_stevens,
    jdoti_matrix,
    jminus_matrix,
    jplus_matrix,
    jz_matrix,
    quadrupole_matrix,
    stevens_matrix,
)

SPINS = [0.5, 1.0, 1.5, 2.0, 3.5, 8.0]


def test_jz_half():
    jz = build_jz(0.5)
    assert np.allclose(jz.matrix, np.diag([-0.5, 0.5]))


def test_jz_j8_dimension_and_trace():
    jz = build_jz(8.0)
    assert jz.dim == 17
    assert np.allclose(np.diag(jz.matrix).real, np.arange(-8, 9))
    assert abs(np.trace(jz.matrix)) == 0.0


@pytest.mark.parametrize("bad", [-1.0, 0.3, np.nan])
def test_invalid_spin_rejected(bad):
    with pytest.raises(ValueError):
        build_jz(bad)


def test_jplus_half():
    jp = build_jplus(0.5)
    assert jp.matrix[1, 0] == pytest.approx(1.0)
    assert jp.matrix[0, 1] == 0.0


def test_jplus_j8_top_element():
    # <8|J+|7> = sqrt(8*9 - 7*8) = sqrt(16) = 4, worked by hand
    jp = build_jplus(8.0)
    assert jp.matrix[16, 15] == pytest.approx(4.0)


def test_jminus_is_adjoint_of_jplus():
    jp = build_jplus(3.5).matrix
    jm = build_jminus(3.5).matrix
    assert np.array_equal(jm, jp.conj().T)


@pytest.mark.parametrize("j", SPINS)
def test_su2_commutators(j):
    jz = build_jz(j).matrix
    jp = build_jplus(j).matrix
    jm = build_jminus(j).matrix
    assert np.max(np.abs(jp @ jm - jm @ jp - 2 * jz)) < 1e-12
    assert np.max(np.abs(jz @ jp - jp @ jz - jp)) < 1e-12
    assert np.max(np.abs(jz @ jm - jm @ jz + jm)) < 1e-12


@pytest.mark.parametrize("j", SPINS)
def test_casimir(j):
    jz = build_jz(j).matrix
    jp = build_jplus(j).matrix
    jm = build_jminus(j).matrix
    j2 = jz @ jz + 0.5 * (jp @ jm + jm @ jp)
    assert np.max(np.abs(j2 - j * (j + 1) * np.eye(jz.shape[0]))) < 1e-12


def test_stevens_o20_topmost_diagonal():
    # 3 M^2 - J(J+1) at M = 8: 3*64 - 72 = 120
    o20 = build_stevens(2, 0, 8.0)
    assert o20.matrix[16, 16].real == pytest.approx(120.0)
    assert np.max(np.abs(o20.matrix - np.diag(np.diag(o20.matrix)))) == 0.0


def test_stevens_o44_couples_only_delta_m_4():
    o44 = build_stevens(4, 4, 8.0).matrix
    for r in range(17):
        for c in range(17):
            if abs(r - c) != 4 and o44[r, c] != 0:
                pytest.fail(f"O_4^4 has forbidden element at ({r}, {c})")


@pytest.mark.parametrize("k,q", SUPPORTED_STEVENS)
def test_stevens_hermitian_traceless(k, q):
    op = build_stevens(k, q, 8.0)
    assert op.hermiticity_defect() < 1e-12
    assert abs(np.trace(op.matrix)) < 1e-9


@pytest.mark.parametrize("k,q", SUPPORTED_STEVENS)
def test_stevens_commutes_with_quarter_turn(k, q):
    # q = 0 (mod 4) throughout the supported set: the S4-compatible rotation
    # exp(i pi/2 J_z) must commute with every operator
    assert q % 4 == 0
    jz = build_jz(8.0).matrix
    u = np.diag(np.exp(1j * np.pi / 2 * np.diag(jz)))
    op = build_stevens(k, q, 8.0).matrix
    assert np.max(np.abs(u @ op - op @ u)) < 1e-10


@pytest.mark.parametrize("k,q", [(2, 2), (3, 0), (6, 6), (4, 1)])
def test_unsupported_stevens_rejected(k, q):
    with pytest.raises(ValueError):
        build_stevens(k, q, 8.0)


def test_spin_system_dimensions():
    sys = SpinSystem(8.0, 3.5)
    assert (sys.dim_j, sys.dim_i, sys.dim) == (17, 8, 136)
    with pytest.raises(ValueError):
        SpinSystem(8.0, 0.4)


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))
    op = OperatorMatrix(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_cached_operators_equal_built_ones():
    j = 8.0
    assert np.array_equal(jz_matrix(j), build_jz(j).matrix)
    assert np.array_equal(jplus_matrix(j), build_jplus(j).matrix)
    assert np.array_equal(jminus_matrix(j), build_jminus(j).matrix)
    for k, q in SUPPORTED_STEVENS:
        assert np.array_equal(stevens_matrix(k, q, j), build_stevens(k, q, j).matrix)
    assert jz_matrix(j) is jz_matrix(j)


def test_cached_operators_reject_writes():
    cached = (
        jz_matrix(8.0),
        jplus_matrix(8.0),
        jminus_matrix(8.0),
        stevens_matrix(6, 4, 8.0),
        jdoti_matrix(8.0, 3.5),
        quadrupole_matrix(8.0, 3.5),
    )
    for mat in cached:
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_cached_operator_rejects_invalid_spin():
    with pytest.raises(ValueError):
        jz_matrix(0.3)
