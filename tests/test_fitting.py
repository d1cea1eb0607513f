import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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
from hfspec.hamiltonian import CFParameters, HyperfineConstants, LabelingError

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


# ------------------------------------------- two-wide fit_b, sequential oracle

def _sequential_jacobian(fun, x, x_scale, bounds=(-np.inf, np.inf), log=None):
    """Reference: ``numerical_jacobian`` as it was before it took an
    evaluator, each probe evaluated where the loop reaches it."""
    x = np.asarray(x, dtype=float)
    lo, hi = (np.broadcast_to(b, x.shape) for b in bounds)
    columns = []
    for k in range(len(x)):
        h = fitting.JAC_REL_STEP * x_scale[k]
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        width = 2.0 * h
        if xp[k] > hi[k] or xm[k] < lo[k]:
            xp[k], xm[k] = min(xp[k], hi[k]), max(xm[k], lo[k])
            width = xp[k] - xm[k]
        if log is not None:
            log += [("J", xp), ("J", xm)]
        columns.append((fun(xp) - fun(xm)) / width)
    return np.array(columns).T


def _sequential_lsq(fun, x0, x_scale, bounds=(-np.inf, np.inf), log=None):
    """Reference: ``damped_least_squares`` as it was before it took an
    evaluator, one evaluation at a time, each where the loop first needs it,
    and again wherever a point comes back.  ``log`` collects ("t", trial)
    and ("J", probe) in evaluation order."""
    x = np.asarray(x0, dtype=float).copy()
    x_scale = np.asarray(x_scale, dtype=float)

    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    chi2 = float(r @ r)
    history = [chi2]
    mu = 1e-3

    for iteration in range(1, fitting.MAX_ITERATIONS + 1):
        jac = _sequential_jacobian(fun, x, x_scale, bounds, log)
        gradient = jac.T @ r
        normal = jac.T @ jac
        diag = np.diag(normal)
        damping = np.maximum(diag, 1e-14 * max(float(diag.max()), 1e-300))

        grad_scale = float(np.max(np.abs(gradient) * x_scale))
        accepted = False
        while mu < 1e16:
            try:
                step = np.linalg.solve(normal + mu * np.diag(damping), -gradient)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            x_new = np.clip(x + step, *bounds)
            if log is not None:
                log.append(("t", x_new))
            r_new = np.asarray(fun(x_new), dtype=float)
            chi2_new = float(r_new @ r_new)
            if chi2_new <= chi2:
                drop = (chi2 - chi2_new) / max(chi2, 1e-300)
                step_norm = float(np.linalg.norm(x_new - x))
                x, r, chi2 = x_new, r_new, chi2_new
                history.append(chi2)
                mu = max(mu / 10.0, 1e-15)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            if grad_scale < 1e-8 * max(chi2, 1.0):
                break
            raise ConvergenceError(
                f"no downhill step found at iteration {iteration} "
                f"(damping exhausted, |gradient| ~ {grad_scale:.3e})"
            )
        if drop < fitting.CHI2_RTOL or step_norm < fitting.STEP_ATOL:
            break
    else:
        raise ConvergenceError(f"iteration cap {fitting.MAX_ITERATIONS} exceeded")

    jac = _sequential_jacobian(fun, x, x_scale, bounds, log)
    return fitting.LSQSolution(x, chi2, jac, iteration, tuple(history), x_scale.copy())


def _two_wide_lsq(fun, x0, x_scale, bounds=(-np.inf, np.inf)):
    """damped_least_squares with the evaluator that fit_b uses."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return damped_least_squares(fun, x0, x_scale, bounds, evaluate=fitting._evaluate_two_wide(pool))


def _outcome(run, *args):
    """run(*args), or the repr of the exception it raised."""
    try:
        return run(*args)
    except Exception as exc:  # the oracle compares whatever is raised
        return repr(exc)


def _assert_same(got, want):
    """Two LSQSolutions, or two exception reprs, agree bit for bit."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.chi2).tobytes() == np.float64(want.chi2).tobytes()
    assert got.jacobian.tobytes() == want.jacobian.tobytes()
    assert got.n_iter == want.n_iter
    assert np.array(got.chi2_history).tobytes() == np.array(want.chi2_history).tobytes()


def _captured_solutions(monkeypatch):
    """The raw solutions that fits build their results from, as they come."""
    solutions = []
    build = fitting._build_result
    monkeypatch.setattr(fitting, "_build_result", lambda *args: solutions.append(args[1]) or build(*args))
    return solutions


def _fit_b_against_oracle(monkeypatch, dataset, params, a_j, system, initial_b):
    """Run fit_b, and the sequential loop on the same residual; both outcomes
    (the raw solution fit_b builds its result from, or the exception's repr)
    must agree.  Returns fit_b's, after checking that it left no thread behind."""
    solutions = _captured_solutions(monkeypatch)
    threads = threading.active_count()
    got = _outcome(lambda: fit_b(dataset, params, a_j, system, initial_b) and solutions[-1])
    assert threading.active_count() == threads

    predict = fitting._exact_predictor(params, dataset.rows, system)
    data = np.array([row.value for row in dataset.rows])
    sigmas = np.array([row.sigma for row in dataset.rows])
    residual = lambda x: (data - predict(HyperfineConstants(a_j, float(x[0])))) / sigmas
    want = _outcome(_sequential_lsq, residual, np.array([initial_b]), np.array([max(abs(initial_b), 1e-3)]))
    _assert_same(got, want)
    return got


def test_fit_b_bundled_matches_the_sequential_loop(monkeypatch, measured, cf_params, system):
    solution = _fit_b_against_oracle(monkeypatch, measured, cf_params, A_J_REF, system, 0.04)
    assert solution.n_iter == 4


def test_fit_b_from_zero_with_cold_operators_and_fast_switching(monkeypatch, measured, cf_params, system):
    """Started at b_quad = 0, the first evaluations that need the quadrupole
    operator are the first Jacobian's two probes, so both threads build it at
    once, while the interpreter switches threads every microsecond."""
    from hfspec import angular

    angular.quadrupole_matrix.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _fit_b_against_oracle(monkeypatch, measured, cf_params, A_J_REF, system, 0.0)
    finally:
        sys.setswitchinterval(interval)


def _fit_b_draws(n=20):
    """Truths drawn as perfbench's refine op draws them: each non-zero CF
    coefficient within about 2 %, b_quad from N(0.04, 0.004), a_j the
    reference.  Returns (CF, b_quad, noise seed) per draw."""
    from hfspec import CF_HO_LIYF4

    rng = np.random.default_rng(30)
    names = ("b20", "b40", "b44", "b60", "b64")
    draws = []
    for k in range(n):
        factors = 1.0 + 0.02 * rng.standard_normal(len(names))
        cf = replace(CF_HO_LIYF4, **{name: getattr(CF_HO_LIYF4, name) * f for name, f in zip(names, factors)})
        draws.append((cf, float(rng.normal(0.04, 0.004)), k))
    return draws


@pytest.mark.parametrize("cf, b_quad, seed", _fit_b_draws(), ids=[f"draw{k}" for k in range(20)])
def test_fit_b_draw_matches_the_sequential_loop(monkeypatch, measured, system, cf, b_quad, seed):
    """The bundled lines' layout with values predicted at a drawn truth plus
    noise of their sigma, fitted at the truth's CF from b_quad = 0.04."""
    rows = measured.rows
    values = predict_lines_exact(cf, HyperfineConstants(A_J_REF, b_quad), rows, system)
    values += np.random.default_rng(seed).normal(0.0, [row.sigma for row in rows])
    dataset = TransitionDataset([replace(row, value=float(v)) for row, v in zip(rows, values)])
    _fit_b_against_oracle(monkeypatch, dataset, cf, A_J_REF, system, 0.04)


#: the inputs of fit_b in perfbench's refine op, seed 4 input 41: fit_cf_aj's
#: CF and a_j, and the bundled lines' layout with synthetic values
REFUSED_CF = CFParameters(b20=-0.2700274913522167, b40=0.0016860559641829794, b44=0.027763775211058737,
                          b60=5.90428087971763e-06, b64=0.0005505268110247071, b6m4=0.0, b4m4=0.0)
REFUSED_AJ = 0.026601825603251677
REFUSED_VALUES = (
    7.497811861740247, 7.35905267497504, 7.238341854380077, 7.122436719311721, 6.959966143415948,
    6.815057217374933, 6.661322476759909, 6.484040418840917, 23.357529380797374, 23.215689158155882,
    23.0713191935785, 22.92899262234427, 22.784719971506373, 22.639316288547978, 22.4934156610309,
    22.346847162577866, 15.857045073293104, 15.832483979966899, 15.83022616622749, 15.820320159815592,
    15.821642789722778, 15.827459766660631, 15.838680384847349, 15.85177827312322,
)


def test_fit_b_refusal_matches_the_sequential_loop(monkeypatch, measured, system):
    rows = [replace(row, value=v) for row, v in zip(measured.rows, REFUSED_VALUES, strict=True)]
    got = _fit_b_against_oracle(monkeypatch, TransitionDataset(rows), REFUSED_CF, REFUSED_AJ, system, 0.04)
    assert got == repr(LabelingError(
        "ambiguous labelling: state (n=9, sigma=+1, m_z=-1.5) has weight 0.465 < 0.5 on its assigned "
        "energy cluster; hyperfine constants too large for perturbative labelling"
    ))


def _long_rejections(x):
    """A line with a fine ripple: near its foot the Gauss-Newton step jumps
    across ripples, and the damping climbs through runs of rejected trials."""
    return np.array([x[0] - 3.0, 1e-6 * np.sin(1e7 * x[0])])


LONG_REJECTIONS = (_long_rejections, np.array([40.0]), np.array([1.0]))


def test_a_long_rejection_run_matches_the_sequential_loop():
    log = []
    want = _sequential_lsq(*LONG_REJECTIONS, log=log)
    pattern = "".join(role for role, _ in log)
    assert pattern.count("t" * 10) == 2, pattern
    _assert_same(_two_wide_lsq(*LONG_REJECTIONS), want)


@pytest.mark.parametrize("two_wide", [False, True], ids=["sequential", "two-wide"])
def test_a_bounded_fit_matches_the_sequential_loop(two_wide):
    """Bounds that clip both the trials and the Jacobian probes near the foot."""
    fun, x0, x_scale = LONG_REJECTIONS
    bounds = (np.array([3.0 + 2e-7]), np.array([41.0]))
    engine = _two_wide_lsq if two_wide else damped_least_squares
    _assert_same(engine(fun, x0, x_scale, bounds), _sequential_lsq(fun, x0, x_scale, bounds))


def test_fit_cf_aj_matches_the_sequential_loop(monkeypatch, cf_params, system):
    """Seven parameters, evaluated one at a time: the probes in column order."""
    dataset = synthetic_cf_dataset(cf_params, A_J_REF, system, rng=np.random.default_rng(3))
    solutions = _captured_solutions(monkeypatch)
    start = perturbed(cf_params, 1.05)
    fit_cf_aj(dataset, start, A_J_REF * 1.05, system)

    at_point = fitting._first_order_predictor(dataset.rows, system)
    data = np.array([row.value for row in dataset.rows])
    sigmas = np.array([row.sigma for row in dataset.rows])
    residual = lambda x: (data - at_point(*fitting._cf_aj_point(x, start))) / sigmas
    x0 = np.array([getattr(start, name) for name in CF_AJ_PARAM_NAMES[:-1]] + [A_J_REF * 1.05])
    _assert_same(solutions[-1], _sequential_lsq(residual, x0, np.maximum(np.abs(x0), 1e-8)))


def _raising_at(fun, point):
    def raising(x):
        if x.tobytes() == point.tobytes():
            raise ArithmeticError(f"no residual at {x!r}")
        return fun(x)

    return raising


@pytest.mark.parametrize("role", ["t", "J"], ids=["trial", "probe"])
def test_an_exception_the_sequential_loop_meets_is_raised(role):
    """A residual that raises at any one trial, or any one Jacobian probe,
    that the sequential loop evaluates: the two-wide fit raises the same."""
    fun, x0, x_scale = LONG_REJECTIONS
    log = []
    _sequential_lsq(*LONG_REJECTIONS, log=log)
    points = [x for kind, x in log if kind == role]
    assert len(points) > 10
    for point in points:
        raising = _raising_at(fun, point)
        want = _outcome(_sequential_lsq, raising, x0, x_scale)
        assert "no residual" in want
        assert _outcome(_two_wide_lsq, raising, x0, x_scale) == want


def test_an_exception_at_a_speculative_trial_is_discarded():
    """A residual that raises only at trials the sequential loop never
    evaluates: the two-wide fit ends as the sequential loop does."""
    fun, x0, x_scale = LONG_REJECTIONS
    log = []
    want = _sequential_lsq(*LONG_REJECTIONS, log=log)
    needed = {x.tobytes() for _, x in log} | {x0.tobytes()}
    evaluated = []
    _two_wide_lsq(lambda x: evaluated.append(x) or fun(x), x0, x_scale)
    speculative = [x for x in evaluated if x.tobytes() not in needed]
    assert len(speculative) == 2
    for point in speculative:
        _assert_same(_two_wide_lsq(_raising_at(fun, point), x0, x_scale), want)


def test_the_worker_evaluates_under_the_callers_errstate():
    """A division by zero at the first Jacobian's - probe, which the worker
    thread evaluates, raises under ``np.errstate(divide="raise")`` as it
    does on the calling thread."""
    fun, x0, x_scale = LONG_REJECTIONS
    log = []
    _sequential_lsq(*LONG_REJECTIONS, log=log)
    probe = log[1][1].tobytes()
    dividing = lambda x: fun(x) / float(x.tobytes() != probe)
    with np.errstate(divide="raise"):
        want = _outcome(_sequential_lsq, dividing, x0, x_scale)
        assert want.startswith("FloatingPointError")
        assert _outcome(_two_wide_lsq, dividing, x0, x_scale) == want


@pytest.mark.parametrize("g", [0.0, 5e-9])
def test_no_point_is_evaluated_twice(g):
    """At a kink the sequential loop evaluates the final Jacobian's probes a
    second time, and at g = 0 also the start, where a step of zero length is
    accepted; the engine evaluates the same points once each and returns
    the same solution."""
    fun = lambda x: np.array([1.0 + abs(x[0]) + g * x[0]])
    evaluated = []
    got = damped_least_squares(lambda x: evaluated.append(x.tobytes()) or fun(x), np.array([0.0]), np.array([1.0]))
    _assert_same(got, _sequential_lsq(fun, np.array([0.0]), np.array([1.0])))
    log = []
    _sequential_lsq(fun, np.array([0.0]), np.array([1.0]), log=log)
    assert len(evaluated) == len(set(evaluated)) == len({x.tobytes() for _, x in log} | {evaluated[0]}) < len(log) + 1


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
