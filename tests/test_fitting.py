import numpy as np
import pytest

from hfspec import fitting
from hfspec.fitting import (
    CF_AJ_PARAM_NAMES,
    ConvergenceError,
    ObservationRow,
    TransitionDataset,
    cf_parameters_from_result,
    covariance_from_jacobian,
    damped_least_squares,
    fit_b,
    fit_cf_aj,
    fit_refractive,
    numerical_jacobian,
    predict_lines_exact,
    predict_lines_first_order,
)
from hfspec.hamiltonian import CFParameters, HyperfineConstants

from conftest import synthetic_cf_dataset

A_J_REF = 0.02703


def perturbed(params: CFParameters, factor: float) -> CFParameters:
    return CFParameters(
        b20=params.b20 * factor,
        b40=params.b40 * factor,
        b44=params.b44 * factor,
        b60=params.b60 * factor,
        b64=params.b64 * factor,
        b6m4=params.b6m4 * factor,
        b4m4=params.b4m4,
    )


# ----------------------------------------------------------------- prediction

def test_singlet_singlet_prediction_m_independent(cf_params, system):
    rows = [ObservationRow("hf", 2, 3, float(m), 0.0, 1.0) for m in system.m_i]
    predicted = predict_lines_first_order(cf_params, A_J_REF, rows, system)
    assert np.ptp(predicted) < 1e-12


def test_zero_aj_prediction_m_independent(cf_params, system):
    rows = [ObservationRow("hf", 1, 2, float(m), 0.0, 1.0) for m in system.m_i]
    predicted = predict_lines_first_order(cf_params, 0.0, rows, system)
    assert np.ptp(predicted) < 1e-12


def test_first_order_prediction_edge_value(cf_params, system, levels):
    # at m_z = -7/2: E2 + a_j <J_z> 7/2, roughly 6.83 + 0.51 = 7.34
    row = ObservationRow("hf", 1, 2, -3.5, 0.0, 1.0)
    predicted = predict_lines_first_order(cf_params, A_J_REF, [row], system)[0]
    expected = (levels[1].energy - levels[0].energy) + A_J_REF * levels[0].jz_expect * 3.5
    assert predicted == pytest.approx(expected, abs=1e-12)
    assert predicted == pytest.approx(7.35, abs=0.02)


@pytest.mark.parametrize("n_final", [2, 3, 6])
def test_exact_cf_row_is_the_mean_of_its_hf_rows(cf_params, hyperfine, system, n_final):
    """A hyperfine-averaged row from the exact spectrum is the mean over m_z
    of the eight hf rows of its transition."""
    hf_rows = [ObservationRow("hf", 1, n_final, float(m), 0.0, 0.01) for m in system.m_i]
    rows = [ObservationRow("cf", 1, n_final, None, 0.0, 0.05)] + hf_rows
    predicted = predict_lines_exact(cf_params, hyperfine, rows, system)
    assert predicted[0] == pytest.approx(np.mean(predicted[1:]), rel=0, abs=1e-12)


def test_prediction_rejects_bad_level(cf_params, system):
    row = ObservationRow("hf", 1, 99, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        predict_lines_first_order(cf_params, A_J_REF, [row], system)


def test_observation_row_validation():
    with pytest.raises(ValueError):
        ObservationRow("hf", 1, 2, None, 0.0, 1.0)
    with pytest.raises(ValueError):
        ObservationRow("cf", 1, None, None, 0.0, 1.0)
    with pytest.raises(ValueError):
        ObservationRow("hf", 1, 2, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        ObservationRow("banana", 1, 2, 0.5, 0.0, 1.0)
    for m_z in (1 / 3, 0.25, float("nan")):
        with pytest.raises(ValueError, match="half-integer"):
            ObservationRow("hf", 1, 2, m_z, 0.0, 1.0)


@pytest.mark.parametrize(
    "kind, n_init, n_final, m_z",
    [("moment", 0, None, None), ("hf", 0, 2, 0.5), ("hf", 1, 0, 0.5), ("cf", 1, -3, None)],
)
def test_observation_row_rejects_level_below_one(kind, n_init, n_final, m_z):
    with pytest.raises(ValueError, match=">= 1"):
        ObservationRow(kind, n_init, n_final, m_z, 0.0, 1.0)


LEVEL_OUT_OF_RANGE = r"row 1: level index out of range \(have 1\.\.13\)"
M_Z_OUT_OF_RANGE = r"row 1: m_z {} is not a nuclear projection \(have -3\.5\.\.3\.5\)"


@pytest.mark.parametrize(
    "row, message",
    [
        (ObservationRow("moment", 18, None, None, 1.0, 1.0), LEVEL_OUT_OF_RANGE),
        (ObservationRow("hf", 1, 18, 0.5, 7.0, 1.0), LEVEL_OUT_OF_RANGE),
        (ObservationRow("cf", 18, 2, None, 7.0, 1.0), LEVEL_OUT_OF_RANGE),
        (ObservationRow("hf", 1, 2, 4.5, 7.3, 0.01), M_Z_OUT_OF_RANGE.format(r"4\.5")),
        (ObservationRow("hf", 1, 2, -4.5, 7.3, 0.01), M_Z_OUT_OF_RANGE.format(r"-4\.5")),
        (ObservationRow("hf", 1, 2, 1.0, 7.3, 0.01), M_Z_OUT_OF_RANGE.format("1")),
    ],
    ids=["row0", "row1", "row2", "m_z-9/2", "m_z-minus-9/2", "m_z-1"],
)
def test_both_predictions_reject_bad_level_alike(row, message, cf_params, hyperfine, system):
    from hfspec.datasets import DatasetError

    rows = [ObservationRow("hf", 1, 2, 0.5, 7.0, 1.0), row]
    with pytest.raises(DatasetError, match=message):
        predict_lines_first_order(cf_params, A_J_REF, rows, system)
    with pytest.raises(DatasetError, match=message):
        predict_lines_exact(cf_params, hyperfine, rows, system)


def test_too_few_rows_is_a_dataset_error(cf_params, system):
    from hfspec.datasets import DatasetError

    rows = [ObservationRow("hf", 1, 2, 0.5, 7.0, 0.01), ObservationRow("hf", 1, 3, 0.5, 23.0, 0.01)]
    with pytest.raises(DatasetError, match="2 rows cannot constrain 7 parameters"):
        fit_cf_aj(TransitionDataset(rows), cf_params, A_J_REF, system)
    with pytest.raises(DatasetError, match="0 rows cannot constrain 1 parameter$"):
        fit_b(TransitionDataset([]), cf_params, A_J_REF, system, initial_b=0.04)
    with pytest.raises(DatasetError, match="1 rows cannot constrain 1 parameter$"):
        fit_b(TransitionDataset(rows[:1]), cf_params, A_J_REF, system, initial_b=0.04)
    points = np.array([[50.0, 2.4], [60.0, 2.45], [70.0, 2.5]])
    with pytest.raises(DatasetError, match="3 points cannot constrain 3 parameters"):
        fit_refractive(points)


# -------------------------------------------------------------------- engine

def test_jacobian_of_quadratic():
    def f(x):
        return np.array([x[0] ** 2 + 3 * x[1], x[1] ** 2])

    jac = numerical_jacobian(f, np.array([2.0, 5.0]), np.array([1.0, 1.0]))
    assert np.allclose(jac, [[4.0, 3.0], [0.0, 10.0]], atol=1e-6)


def test_engine_handles_flat_direction():
    # second parameter does nothing: engine must still converge in the first
    def f(x):
        return np.array([x[0] - 3.0, 2.0 * (x[0] - 3.0)])

    x0 = np.array([10.0, 7.0])
    solution = damped_least_squares(f, x0, x_scale=x0)
    assert solution.x[0] == pytest.approx(3.0, abs=1e-9)
    assert solution.x[1] == pytest.approx(7.0, abs=1e-12)
    cov, errors, null_mask = covariance_from_jacobian(solution.jacobian, solution.x_scale)
    assert not null_mask[0]
    assert null_mask[1]
    assert np.isinf(errors[1])


def test_engine_rejects_a_step_to_non_finite_residuals():
    """A trial step whose residuals are nan or inf has a non-finite chi^2,
    which never counts as downhill: the damping grows until a step lands."""
    def f(x):
        return np.array([x[0] - 3.0, np.nan if x[0] > 3.5 else 0.0, np.inf if x[0] < -1.0 else 0.0])

    solution = damped_least_squares(f, np.array([-0.5]), x_scale=np.array([1.0]))
    assert solution.x[0] == pytest.approx(3.0, abs=1e-9)
    assert np.all(np.diff(solution.chi2_history) <= 0)


def test_engine_iteration_cap(monkeypatch):
    """The cap is read when the engine runs, so lowering it takes effect."""
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)

    def f(x):
        return np.array([np.exp(-x[0] * 0.001) - 0.5])

    with pytest.raises(ConvergenceError, match="iteration cap 2 exceeded"):
        damped_least_squares(f, np.array([0.0]), x_scale=np.array([1.0]))


def test_engine_stops_only_where_the_gradient_vanishes():
    """r(x) = 1 + |x| + g x has its minimum at x = 0 with a kink there: every
    step is uphill, and the central-difference gradient is g.  A gradient of
    1e-4 is no stationary point, so the engine must refuse; at g = 0 it
    stays at x = 0.  At g = 5e-9 every step is refused while the gradient is
    below the stationary-point cut, so the engine stops at x = 0 there too
    (at g = 1e-12 the central difference rounds the gradient to 0)."""
    def residual(g):
        return lambda x: np.array([1.0 + abs(x[0]) + g * x[0]])

    with pytest.raises(ConvergenceError, match="no downhill step"):
        damped_least_squares(residual(1e-4), np.array([0.0]), x_scale=np.array([1.0]))
    for g in (0.0, 5e-9):
        solution = damped_least_squares(residual(g), np.array([0.0]), x_scale=np.array([1.0]))
        assert solution.x[0] == 0.0


# -------------------------------------------------------------- cf + a_j fit

def test_noiseless_round_trip(cf_params, system):
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system)
    start = perturbed(cf_params, 1.05)
    result = fit_cf_aj(dataset, start, A_J_REF * 1.05, system)
    truth = {name: getattr(cf_params, name) for name in CF_AJ_PARAM_NAMES[:-1]}
    truth["a_j"] = A_J_REF
    for name, value in result.params.items():
        target = truth[name]
        if target == 0.0:
            assert abs(value) < 1e-8
        else:
            assert abs(value - target) / abs(target) < 1e-6
    assert result.chi2 < 1e-12
    assert result.dof == len(dataset.rows) - 7


def test_noisy_round_trip_within_errors(cf_params, system):
    rng = np.random.default_rng(20260808)
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system, rng=rng)
    result = fit_cf_aj(dataset, perturbed(cf_params, 1.05), A_J_REF * 1.05, system)
    truth = {name: getattr(cf_params, name) for name in CF_AJ_PARAM_NAMES[:-1]}
    truth["a_j"] = A_J_REF
    for name in result.names:
        error = result.param_errors[name]
        if np.isinf(error):
            continue  # direction flagged unidentifiable
        assert abs(result.params[name] - truth[name]) < 3 * error, name
    assert 0.3 < result.chi2 / result.dof < 3.0


def test_row_order_invariance(cf_params, system):
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system)
    shuffled = TransitionDataset(list(reversed(dataset.rows)))
    a = fit_cf_aj(dataset, perturbed(cf_params, 1.03), A_J_REF, system)
    b = fit_cf_aj(shuffled, perturbed(cf_params, 1.03), A_J_REF, system)
    for name in a.params:
        assert a.params[name] == pytest.approx(b.params[name], abs=1e-10)


def test_gradient_small_at_optimum(cf_params, system):
    # dimensionless first-order optimality: |J_k . r| against its
    # Cauchy-Schwarz bound |J_k| |r|, per free parameter
    rng = np.random.default_rng(99)
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system, rng=rng)
    result = fit_cf_aj(dataset, perturbed(cf_params, 1.05), A_J_REF * 1.05, system)
    sigmas = np.array([r.sigma for r in dataset.rows])
    data = np.array([r.value for r in dataset.rows])
    free = result.names
    x0 = np.array([result.params[n] for n in free])

    def weighted_residual(x):
        trial = dict(zip(free, x))
        cf = CFParameters(trial["b20"], trial["b40"], trial["b44"],
                          trial["b60"], trial["b64"], trial["b6m4"])
        predicted = predict_lines_first_order(cf, trial["a_j"], dataset.rows, system)
        return (data - predicted) / sigmas

    r = weighted_residual(x0)
    jac = numerical_jacobian(weighted_residual, x0, np.maximum(np.abs(x0), 1e-8))
    for k, name in enumerate(free):
        column_norm = np.linalg.norm(jac[:, k])
        if column_norm == 0.0:
            continue  # flat direction: nothing to be optimal about
        ratio = abs(jac[:, k] @ r) / (column_norm * np.linalg.norm(r))
        assert ratio < 1e-6, (name, ratio)


def test_linearized_covariance_against_ensemble(cf_params, system):
    # 100 linearized noise draws: parameter scatter must match the reported
    # one-sigma errors within a factor 1.5
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system)
    result = fit_cf_aj(dataset, perturbed(cf_params, 1.02), A_J_REF, system)
    best_cf, best_aj = cf_parameters_from_result(result, cf_params, A_J_REF)
    sigmas = np.array([r.sigma for r in dataset.rows])

    free = result.names
    x0 = np.array([result.params[n] for n in free])

    def weighted_residual(x):
        trial = dict(zip(free, x))
        cf = CFParameters(trial["b20"], trial["b40"], trial["b44"],
                          trial["b60"], trial["b64"], trial["b6m4"])
        predicted = predict_lines_first_order(cf, trial["a_j"], dataset.rows, system)
        data = np.array([r.value for r in dataset.rows])
        return (data - predicted) / sigmas

    scale = np.maximum(np.abs(x0), 1e-8)
    jac = numerical_jacobian(weighted_residual, x0, scale)
    # linearized estimator in scaled parameter space, where the normal matrix
    # is well conditioned
    gain = scale[:, None] * np.linalg.pinv(jac * scale)
    rng = np.random.default_rng(4)
    draws = np.array([gain @ rng.normal(0.0, 1.0, len(dataset.rows)) for _ in range(100)])
    scatter = draws.std(axis=0)
    for k, name in enumerate(free):
        error = result.errors[k]
        if np.isinf(error) or scatter[k] == 0.0:
            continue
        assert 1 / 1.5 < scatter[k] / error < 1.5, name


def test_measured_dataset_aj(measured, cf_params, system):
    # the bundled three-family line list pins the dipolar constant even with
    # most CF directions unconstrained
    result = fit_cf_aj(measured, cf_params, 0.026, system)
    assert result.params["a_j"] == pytest.approx(0.02703, abs=0.0003)


# ------------------------------------------------------------------- b_quad

def test_fit_b_on_measured_lines(measured, cf_params, system):
    result = fit_b(measured, cf_params, A_J_REF, system, initial_b=0.04)
    assert 0.02 < result.params["b_quad"] < 0.06



def test_fit_b_classifies_h_cf_once(monkeypatch, measured, cf_params, system):
    """fit_b holds its CF parameters fixed, so H_CF is solved and classified
    once per fit, not once per model evaluation."""
    from hfspec import hamiltonian

    calls = []
    classify = hamiltonian.classify_levels
    monkeypatch.setattr(hamiltonian, "classify_levels", lambda *args: calls.append(1) or classify(*args))
    result = fit_b(measured, cf_params, A_J_REF, system, initial_b=0.04)
    assert result.n_iter > 1
    assert len(calls) == 1


def test_fit_b_takes_its_solved_point_once(monkeypatch, measured, cf_params, system):
    """fit_b asks for its solved CF point once and holds it through every
    evaluation, rather than looking the point up again each time."""
    calls = []
    take = fitting._cf_point
    monkeypatch.setattr(fitting, "_cf_point", lambda *args: calls.append(1) or take(*args))
    fit_b(measured, cf_params, A_J_REF, system, initial_b=0.04)
    assert len(calls) == 1


def test_fit_b_synthetic_round_trip(cf_params, system):
    truth = HyperfineConstants(A_J_REF, 0.059)
    rows = []
    for ni, nf, sigma in ((1, 2, 0.01), (1, 3, 0.001), (2, 3, 0.003)):
        for m in system.m_i:
            rows.append(ObservationRow("hf", ni, nf, float(m), 0.0, sigma))
    values = predict_lines_exact(cf_params, truth, rows, system)
    rows = [
        ObservationRow(r.kind, r.n_init, r.n_final, r.m_z, float(v), r.sigma)
        for r, v in zip(rows, values)
    ]
    result = fit_b(TransitionDataset(rows), cf_params, A_J_REF, system, initial_b=0.03)
    assert result.params["b_quad"] == pytest.approx(0.059, abs=1e-3)
    assert result.chi2 < 1e-10


def test_fit_b_zero_consistent(cf_params, system):
    truth = HyperfineConstants(A_J_REF, 0.0)
    rows = [ObservationRow("hf", 1, 3, float(m), 0.0, 0.001) for m in system.m_i]
    values = predict_lines_exact(cf_params, truth, rows, system)
    rows = [
        ObservationRow(r.kind, r.n_init, r.n_final, r.m_z, float(v), r.sigma)
        for r, v in zip(rows, values)
    ]
    result = fit_b(TransitionDataset(rows), cf_params, A_J_REF, system, initial_b=0.01)
    assert abs(result.params["b_quad"]) <= max(3 * result.errors[0], 1e-6)


def test_fit_b_branch_convention_insensitive(cf_params, hyperfine, system, hf_levels):
    # predictions built from the sigma = -1 branches at mirrored m_z must
    # agree with the sigma = +1 predictions line by line
    energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels}
    for m in system.m_i:
        plus = energy[(2, +1, m)] - energy[(1, +1, m)]
        minus = energy[(2, +1, -m)] - energy[(1, -1, -m)]
        assert plus == pytest.approx(minus, abs=1e-6)


# ---------------------------------------------------------------- refractive

@pytest.mark.parametrize("truth", [(-11.1, 110.0, 2.62), (-13.5, 115.0, 2.62)])
def test_refractive_noiseless_round_trip(truth):
    a, nu0, c = truth
    nu = np.linspace(10.0, 70.0, 40)
    data = np.column_stack([nu, a / (nu - nu0) + c])
    result = fit_refractive(data)
    assert result.params["a"] == pytest.approx(a, rel=1e-6)
    assert result.params["nu0"] == pytest.approx(nu0, rel=1e-6)
    assert result.params["c"] == pytest.approx(c, rel=1e-6)


def test_refractive_noisy_round_trip():
    rng = np.random.default_rng(11)
    a, nu0, c = -13.5, 115.0, 2.62
    nu = np.linspace(10.0, 70.0, 60)
    sigma_n = 0.005
    data = np.column_stack(
        [nu, a / (nu - nu0) + c + rng.normal(0, sigma_n, nu.size),
         np.full(nu.size, sigma_n)]
    )
    result = fit_refractive(data)
    for name, target in (("a", a), ("nu0", nu0), ("c", c)):
        assert abs(result.params[name] - target) < 3 * result.param_errors[name]


def test_refractive_constant_data():
    nu = np.linspace(10.0, 70.0, 20)
    data = np.column_stack([nu, np.full(nu.size, 2.62)])
    result = fit_refractive(data)
    assert result.params["a"] == pytest.approx(0.0, abs=1e-6)
    assert result.params["c"] == pytest.approx(2.62, abs=1e-8)


def test_refractive_pole_inside_rejected():
    nu = np.linspace(10.0, 70.0, 20)
    data = np.column_stack([nu, np.full(nu.size, 2.62)])
    with pytest.raises(ValueError, match="points"):
        fit_refractive(data[:3])


def test_refractive_needs_three_distinct_frequencies():
    """Two distinct frequencies fit exactly for every pole, so none is placed."""
    from hfspec.datasets import DatasetError

    data = np.array([[50.0, 2.40], [50.0, 2.41], [60.0, 2.45], [60.0, 2.46], [60.0, 2.44]])
    with pytest.raises(DatasetError, match="2 distinct frequencies cannot place a pole"):
        fit_refractive(data)
    data[0, 0] = 40.0
    assert np.isfinite(fit_refractive(data).chi2)


#: the 31 frequencies of the refindex set in tests/cli_recorded.json
REFINDEX_NU = np.linspace(10.0, 70.0, 31)


@pytest.mark.parametrize(
    "truth", [(-11.1, 110.0, 2.62), (11.1, -20.0, 2.62)], ids=["pole-above", "pole-below"]
)
def test_refractive_pole_on_either_side(truth):
    """The pole is found on whichever side of the data it lies."""
    a, nu0, c = truth
    data = np.column_stack([REFINDEX_NU, a / (REFINDEX_NU - nu0) + c])
    result = fit_refractive(data)
    for name, target in (("a", a), ("nu0", nu0), ("c", c)):
        assert result.params[name] == pytest.approx(target, rel=1e-8), name
    assert result.chi2 < 1e-20


def _profile_chi2(data, poles):
    """Oracle: chi^2 at each pole in ``poles`` with a and c from the weighted
    normal equations, centred, in closed form."""
    nu, n, sigma = data.T
    w = 1.0 / sigma**2
    x = 1.0 / (nu - poles[:, None])
    xc = x - (x @ w / w.sum())[:, None]
    a = (xc * w) @ n / ((xc * xc) @ w)
    c = (n - a[:, None] * x) @ w / w.sum()
    return ((((n - a[:, None] * x - c[:, None]) / sigma) ** 2).sum(axis=1))


def _refindex(seed=None):
    """The refindex set: with seed None as its CSV file holds it (n to 10
    significant digits, unit weights), else with gaussian noise of sigma
    2e-3 in n."""
    n = -11.1 / (REFINDEX_NU - 110.0) + 2.62
    if seed is None:
        return np.column_stack([REFINDEX_NU, [float(f"{v:.10g}") for v in n], np.ones(REFINDEX_NU.size)])
    sigma = 2e-3
    n = n + sigma * np.random.default_rng(seed).standard_normal(REFINDEX_NU.size)
    return np.column_stack([REFINDEX_NU, n, np.full(REFINDEX_NU.size, sigma)])


@pytest.mark.parametrize("seed", range(6))
def test_refractive_noisy_copies_match_profile_scan(seed):
    data = _refindex(seed)
    step = 0.05
    poles = np.concatenate([np.arange(-1000.0, 10.0 - step / 2, step), np.arange(70.0 + step, 1000.0, step)])
    chi2 = _profile_chi2(data, poles)
    result = fit_refractive(data)
    assert abs(result.params["nu0"] - poles[np.argmin(chi2)]) <= step
    assert result.chi2 <= chi2.min() * (1 + 1e-12)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_refractive_fit_is_stationary(seed):
    """The returned point is where the three-parameter chi^2 is least:
    |d chi^2/dp| times the 1-sigma error of p is below 1e-5 for every p (the
    rounding of chi^2, about 1e-11 at sigma 2e-3, allows little less), and
    chi^2 rises at nu0 +- h."""
    data = _refindex(seed)
    nu, n, sigma = data.T
    result = fit_refractive(data)
    a, nu0, c = result.values
    x = 1.0 / (nu - nu0)
    residual = (n - a * x - c) / sigma
    jacobian = -np.column_stack([x, a * x**2, np.ones_like(nu)]) / sigma[:, None]
    gradient = 2.0 * jacobian.T @ residual
    assert np.all(np.abs(gradient * result.errors) < 1e-5)
    h = 1e-3 * result.param_errors["nu0"]
    assert np.all(_profile_chi2(data, np.array([nu0 - h, nu0 + h])) > result.chi2)
