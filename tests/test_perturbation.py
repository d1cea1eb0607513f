import numpy as np
import pytest

from hfspec.hamiltonian import HyperfineConstants, LabelingError, hf_levels_exact
from hfspec.perturbation import (
    delta_full,
    lambda_from_exact,
    lambda_from_model,
    quadratic_m2_coefficient,
)

from conftest import restricted_three_level_deltas

NO_COUPLING = HyperfineConstants(0.0, 0.0)


def test_zero_coupling_gives_zero(levels, system, m_grid):
    for m in m_grid:
        assert delta_full(1, +1, m, levels, NO_COUPLING, system) == 0.0
        assert delta_full(2, +1, m, levels, NO_COUPLING, system) == 0.0
        assert delta_full(3, +1, m, levels, NO_COUPLING, system) == 0.0


def test_first_order_slope_alone(levels, system, m_grid):
    # truncating the level list to the ground doublet leaves only the
    # first-order term: slope = a_j <J_z> = 0.02703 * 5.40 ~ 0.146
    hf = HyperfineConstants(0.02703, 0.0)
    deltas = [delta_full(1, +1, m, levels[:1], hf, system) for m in m_grid]
    slope = np.polyfit(m_grid, deltas, 1)[0]
    assert slope == pytest.approx(0.1460, abs=0.001)


def test_singlet_corrections_even_in_m(levels, hyperfine, system, m_grid):
    for n in (2, 3):
        for m in m_grid:
            a = delta_full(n, +1, m, levels, hyperfine, system)
            b = delta_full(n, +1, -m, levels, hyperfine, system)
            assert a == pytest.approx(b, rel=0, abs=1e-14)


def test_time_reversal_pairing(levels, hyperfine, system, m_grid):
    for m in m_grid:
        plus = delta_full(1, +1, m, levels, hyperfine, system)
        minus = delta_full(1, -1, -m, levels, hyperfine, system)
        assert plus == pytest.approx(minus, rel=0, abs=1e-14)


def test_singlet_dominated_by_ground_repulsion(levels, system, m_grid):
    # the smallest denominator is E_2 - E_1, so the ladder repulsion off the
    # ground doublet is the largest contribution to the n = 2 correction on
    # average over the ladder (at the ladder edges the nuclear factor
    # I(I+1) - m(m +/- 1) shrinks and the m^2 terms take over)
    hf = HyperfineConstants(0.02703, 0.0)
    others = [lv for lv in levels if lv.n != 1]
    ground_parts, rests = [], []
    for m in m_grid:
        full = delta_full(2, +1, m, levels, hf, system)
        no_ground = delta_full(2, +1, m, others, hf, system)
        ground_parts.append(full - no_ground)
        rests.append(no_ground)
    assert np.mean(np.abs(ground_parts)) > np.mean(np.abs(rests))
    # at the ladder center the ground repulsion dominates outright
    mid = delta_full(2, +1, 0.5, levels, hf, system)
    assert mid > 0  # pushed up from below
    assert abs(ground_parts[4]) > abs(rests[4])


def test_quadrupole_sum_rule(levels, system, m_grid):
    # sum over m_z of (3 m^2 - I(I+1)) vanishes, so the pure-B correction
    # sums to zero across the ladder
    hf = HyperfineConstants(0.0, 0.04)
    for n in (1, 2, 3):
        total = sum(delta_full(n, +1, m, levels, hf, system) for m in m_grid)
        assert total == pytest.approx(0.0, rel=0, abs=1e-12)


def test_delta_vs_exact_diagonalization_small_coupling(cf_params, levels, system, m_grid):
    # alpha = 1/10 of the reference dipolar coupling: second-order theory is
    # accurate to O(alpha^3), far below 1e-4
    hf = HyperfineConstants(0.002703, 0.0)
    exact = {
        (h.n, h.sigma, h.m_z): h.correction
        for h in hf_levels_exact(cf_params, hf, system)
    }
    worst = 0.0
    for n, sigma in [(1, +1), (1, -1), (2, +1), (3, +1)]:
        for m in m_grid:
            pert = delta_full(n, sigma, m, levels, hf, system)
            worst = max(worst, abs(pert - exact[(n, sigma, m)]))
    assert worst < 1e-4


def test_second_doublet_first_order_slope(cf_params, levels, system, m_grid):
    # the sigma = +1 branch of the second doublet has a negative moment,
    # about -3.59, and its ladder slope follows a_j <J_z>
    hf = HyperfineConstants(0.02703, 0.0)
    deltas = [delta_full(6, +1, m, levels, hf, system) for m in m_grid]
    slope = np.polyfit(m_grid, deltas, 2)[1]
    assert slope == pytest.approx(0.02703 * (-3.59), abs=2e-3)
    exact = {
        (h.sigma, h.m_z): h.correction
        for h in hf_levels_exact(cf_params, hf, system)
        if h.n == 6
    }
    for m in m_grid:
        assert deltas[list(m_grid).index(m)] == pytest.approx(
            exact[(+1, m)], abs=2e-3
        )


def test_restricted_model_oracle(levels, system, m_grid):
    # a literal transcription of the three-level model in the test suite is
    # an independent oracle for delta_full on levels[:3].  The ground branch
    # agrees pointwise; the oracle gives each singlet the ground repulsion by
    # antisymmetry, which carries the ground branch's nuclear ladder factor,
    # so the singlets agree in their even-in-m_z part, the only part any
    # difference-series quantity sees
    a_j = 0.02703
    hf = HyperfineConstants(a_j, 0.0)
    truncated = levels[:3]
    d1, d2, d3 = restricted_three_level_deltas(levels, a_j, system)

    def even(values, m):
        return 0.5 * (values[m] + values[-m])

    model = {n: {m: delta_full(n, +1, m, truncated, hf, system) for m in m_grid} for n in (1, 2, 3)}
    for m in m_grid:
        assert model[1][m] == pytest.approx(d1[m], rel=0, abs=1e-12)
        assert even(model[2], m) == pytest.approx(even(d2, m), rel=0, abs=1e-12)
        assert even(model[3], m) == pytest.approx(even(d3, m), rel=0, abs=1e-12)


def test_lambda_reference_values(levels, hyperfine, system):
    lam = lambda_from_model(levels, hyperfine, system)
    assert lam.lambda1 > 0 and lam.lambda2 < 0 and lam.lambda3 > 0
    assert lam.lambda1 == pytest.approx(0.0024, rel=0.25)
    assert lam.lambda2 == pytest.approx(-0.0040, rel=0.25)
    assert lam.lambda3 == pytest.approx(0.0017, rel=0.25)


def test_lambda_zero_coupling(levels, system):
    lam = lambda_from_model(levels, NO_COUPLING, system)
    assert lam.as_tuple() == (0.0, 0.0, 0.0)


def test_restricted_lambda_identity(levels, system):
    # exact algebraic identity of the three-level model without quadrupole
    lam = lambda_from_model(levels[:3], HyperfineConstants(0.02703, 0.0), system)
    assert lam.lambda2 + lam.lambda3 == pytest.approx(-2 * lam.lambda1, rel=0, abs=1e-12)


def test_lambda_model_close_to_exact(cf_params, levels, hyperfine, system):
    model = lambda_from_model(levels, hyperfine, system)
    exact = lambda_from_exact(cf_params, hyperfine, system)
    for a, b in zip(model.as_tuple(), exact.as_tuple()):
        assert a == pytest.approx(b, rel=0.05)


def test_quadratic_regression_exact():
    m = np.arange(-3.5, 4.5)
    values = 0.7 - 0.3 * m + 0.045 * m**2
    assert quadratic_m2_coefficient(m, values) == pytest.approx(0.045, rel=0, abs=1e-14)


def test_convergence_order_in_coupling(cf_params, levels, system, m_grid):
    # discrepancy against exact diagonalization scales as the cube of the
    # dipolar coupling
    errors = {}
    for alpha in (1.0, 0.5):
        hf = HyperfineConstants(alpha * 0.02703, 0.0)
        exact = {
            (h.n, h.sigma, h.m_z): h.correction
            for h in hf_levels_exact(cf_params, hf, system)
        }
        worst = 0.0
        for n in (1, 2, 3):
            for m in m_grid:
                pert = delta_full(n, +1, m, levels, hf, system)
                worst = max(worst, abs(pert - exact[(n, +1, m)]))
        errors[alpha] = worst
    ratio = errors[1.0] / errors[0.5]
    assert ratio == pytest.approx(8.0, rel=0.5)


def test_absent_level_or_branch_refused(system, levels):
    """Level 2 is a singlet: it has the branch sigma = +1 only."""
    hf = HyperfineConstants(0.02703, 0.0)
    with pytest.raises(ValueError, match="level 2 not present in the supplied level list"):
        delta_full(2, +1, 0.5, levels[:1], hf, system)
    with pytest.raises(ValueError, match="level 2 has no sigma=-1 branch"):
        delta_full(2, -1, 0.5, levels, hf, system)


def test_degenerate_interfering_level_rejected(cf_params, system, levels):
    from hfspec.hamiltonian import CFLevel

    clone = CFLevel(99, levels[0].energy, "G2", 1, 0.0, {+1: levels[1].vectors[+1]})
    with pytest.raises(LabelingError, match="levels 1 and 99 are degenerate"):
        delta_full(1, +1, 0.5, levels + [clone], HyperfineConstants(0.01, 0.0), system)
