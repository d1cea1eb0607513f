"""Weighted nonlinear least squares for spectroscopy parameter extraction.

One damped Gauss-Newton engine (Levenberg-style damping, factor 10 up/down,
central-difference Jacobians) drives two fits:

* simultaneous crystal-field + dipolar-coupling fit against measured
  transition energies, predicted from H_CF plus the first-order hyperfine
  shift;
* a one-parameter fit of the quadrupolar constant, with predictions from the
  full electron-nuclear diagonalization.

The far-infrared refractive-index model n(nu) = a/(nu - nu0) + c is fitted by
variable projection, a search over the pole alone that needs no start.

Datasets mix hyperfine-resolved rows, hyperfine-averaged rows (predicted as
the mean over m_z) and moment pseudo-observations constraining <J_z> of a
doublet.  Uncertainties weight the residuals; the covariance is the inverse
of J^T W J at the optimum, restricted to the identifiable subspace: flat
parameter directions (e.g. a q = -4 coefficient starting from zero, where
the spectrum is stationary) are reported as unidentifiable with infinite
error rather than silently inverted.

The engine hands its model evaluations to an evaluator in batches: a
Jacobian's probes, and the trials after an iteration's first one is
rejected.  ``fit_b`` evaluates two at a time, on the calling thread and one
worker thread: each central-difference probe pair, and after a rejected
trial the next two, at mu and 10 mu.  Its evaluation is mostly a 136-dim
``eigh``, which releases the GIL: a pair takes 5.4-6.5 ms where two in turn
take 7.8 ms (median of 200 pairs, OpenBLAS 0.3.31 on one thread, 2-core
Xeon).  ``fit_cf_aj`` and ``fit_peaks`` evaluate one at a time: their
evaluations are small and hold the GIL, and on the same machine a second
thread made a ``fit_cf_aj`` fit 1.9x slower (81.5 against 42.6 ms).
Results are read in the sequential order, and a trial the sequential loop
would not have made is discarded with any exception it raised, so every fit
returns or raises exactly what one evaluation at a time gives.
"""

import contextvars
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np
from numpy.typing import NDArray

from .angular import SpinSystem
from .datasets import ROW_KINDS, DatasetError, ObservationRow, TransitionDataset
from .hamiltonian import CF_COEFFICIENTS, CFParameters, HyperfineConstants, _cf_point, cf_levels

#: free parameters of fit_cf_aj: every CF coefficient but the gauged b4m4, then a_j
CF_AJ_PARAM_NAMES = tuple(name for name in CF_COEFFICIENTS if name != "b4m4") + ("a_j",)

#: central-difference Jacobian step, relative to each parameter's scale
JAC_REL_STEP = 1e-6
#: a fit stops once an accepted step lowers chi^2 by less than this fraction
CHI2_RTOL = 1e-12
#: ... or moves the parameters by less than this norm
STEP_ATOL = 1e-10
#: scaled singular values below RCOND times the largest span flat directions
RCOND = 1e-10
#: damped_least_squares raises ConvergenceError after this many iterations
MAX_ITERATIONS = 200
#: fit_refractive looks for the pole at these multiples of the data span
#: away from the nearest data point, on either side of the data
POLE_RANGE = (1e-3, 1e3)
#: ... first at this many log-spaced distances per side
POLE_SCAN_POINTS = 61
#: ... then refines the best one with this many golden-section steps
GOLDEN_STEPS = 50


class ConvergenceError(RuntimeError):
    """The optimizer hit its iteration cap or could not find a downhill step."""


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with covariance-based uncertainties.

    ``unidentifiable`` names parameters lying in directions where the
    linearized model is flat; their errors are reported as inf.
    """

    names: tuple[str, ...]
    values: NDArray[np.float64]
    errors: NDArray[np.float64]
    covariance: NDArray[np.float64]
    chi2: float
    dof: int
    n_iter: int
    unidentifiable: tuple[str, ...] = ()

    @property
    def params(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    @property
    def param_errors(self) -> dict[str, float]:
        return {n: float(e) for n, e in zip(self.names, self.errors)}


@dataclass(frozen=True)
class LSQSolution:
    """Raw optimizer output; FitResult wraps it with names and covariance."""

    x: NDArray[np.float64]
    chi2: float
    jacobian: NDArray[np.float64]
    n_iter: int
    chi2_history: tuple[float, ...]
    x_scale: NDArray[np.float64]


def _evaluate_two_wide(pool):
    """An evaluator that takes ``points`` two at a time: the first on the
    calling thread, the second on ``pool``'s one worker, in a copy of the
    caller's context (which holds numpy's errstate).  Both finish before
    either result is handed out, so a caller that stops asking leaves no
    evaluation running, and an exception is raised only when the result it
    belongs to is asked for; the first of a pair raises only after the
    second has finished."""

    def evaluate(fun, points):
        points = iter(points)
        for first in points:
            if (second := next(points, None)) is None:
                yield fun(first)
                return
            pending = pool.submit(contextvars.copy_context().run, fun, second)
            try:
                value = fun(first)
            finally:
                pending.exception()  # waits for the second, raising nothing
            yield value
            yield pending.result()

    return evaluate


def numerical_jacobian(fun, x, x_scale, bounds=(-np.inf, np.inf), evaluate=map):
    """Central-difference Jacobian of a residual vector function.

    A probe that would leave ``bounds`` = (lo, hi) stops at the bound, and
    its column divides by the distance actually probed; a column whose two
    probes lie inside is the central difference over 2h.  The probes go to
    ``evaluate`` as one batch, each column's + probe before its - probe.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = (np.broadcast_to(b, x.shape) for b in bounds)
    probes, widths = [], []
    for k in range(len(x)):
        h = JAC_REL_STEP * x_scale[k]
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        width = 2.0 * h
        if xp[k] > hi[k] or xm[k] < lo[k]:
            xp[k], xm[k] = min(xp[k], hi[k]), max(xm[k], lo[k])
            width = xp[k] - xm[k]
        probes += [xp, xm]
        widths.append(width)
    values = evaluate(fun, probes)
    return np.array([(next(values) - next(values)) / width for width in widths]).T


def _damped_trial(fun, x, r, normal, gradient, damping, bounds):
    """The trial at one damping mu: (mu, x_new, r_new), or (mu, None, None)
    where the damped normal matrix is singular.  A step that rounds onto x
    takes x's residuals, since the model is a function of x alone."""

    def trial(mu):
        try:
            step = np.linalg.solve(normal + mu * np.diag(damping), -gradient)
        except np.linalg.LinAlgError:
            return mu, None, None
        x_new = np.clip(x + step, *bounds)
        if x_new.tobytes() == x.tobytes():
            return mu, x_new, r
        return mu, x_new, np.asarray(fun(x_new), dtype=float)

    return trial


def _damping_ladder(mu):
    """mu, 10 mu, 100 mu, ... below 1e16."""
    while mu < 1e16:
        yield mu
        mu *= 10.0


def damped_least_squares(fun, x0, x_scale, bounds=(-np.inf, np.inf), evaluate=map) -> LSQSolution:
    """Minimize |fun(x)|^2 by damped Gauss-Newton iteration.

    The normal matrix is damped with mu * diag(J^T J) (floored so that flat
    directions stay regular); mu shrinks by 10 on an accepted step and grows
    by 10 on a rejected one, so the accepted chi^2 sequence is monotonically
    non-increasing.  A proposed step is rejected unless chi^2 stays or falls,
    so a step to non-finite residuals (chi^2 nan or inf) is rejected too.
    ``x_scale`` is each parameter's typical size: it sets the Jacobian step
    and weighs the gradient.  Steps and Jacobian probes are clipped to
    ``bounds`` = (lo, hi).

    Stops when the relative chi^2 drop falls below ``CHI2_RTOL`` or the step
    norm below ``STEP_ATOL``.  Raises ConvergenceError after
    ``MAX_ITERATIONS`` iterations or when no downhill step exists while the
    gradient is still large.

    ``evaluate(fun, points)`` yields ``fun`` at each point in order; the
    default, ``map``, evaluates one at a time, each when its result is asked
    for.  It gets each Jacobian's probes as one batch, an iteration's first
    trial alone, and the trials after a rejected first one, mu after mu, as
    a second batch.  An evaluator may work ahead within a batch; the results
    are read in order and the first accepted trial ends the batch, so the
    fit, its exceptions included, is the same whatever evaluator runs it.
    ``fun`` must be a function of x alone: a trial that rounds onto the
    current x reuses its residuals, and the final Jacobian, where x has not
    moved since the last one, reuses it.
    """
    x = np.asarray(x0, dtype=float).copy()
    x_scale = np.asarray(x_scale, dtype=float)

    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    chi2 = float(r @ r)
    history = [chi2]
    mu = 1e-3

    for iteration in range(1, MAX_ITERATIONS + 1):
        jac, jac_x = numerical_jacobian(fun, x, x_scale, bounds, evaluate), x
        gradient = jac.T @ r
        normal = jac.T @ jac
        diag = np.diag(normal)
        damping = np.maximum(diag, 1e-14 * max(float(diag.max()), 1e-300))

        grad_scale = float(np.max(np.abs(gradient) * x_scale))
        trial = _damped_trial(fun, x, r, normal, gradient, damping, bounds)
        ladder = _damping_ladder(mu)
        accepted = False
        # the first trial alone, since most iterations accept it
        for mu_trial, x_new, r_new in chain(evaluate(trial, islice(ladder, 1)), evaluate(trial, ladder)):
            if x_new is None:
                continue
            chi2_new = float(r_new @ r_new)
            if chi2_new <= chi2:
                drop = (chi2 - chi2_new) / max(chi2, 1e-300)
                step_norm = float(np.linalg.norm(x_new - x))
                x, r, chi2 = x_new, r_new, chi2_new
                history.append(chi2)
                mu = max(mu_trial / 10.0, 1e-15)
                accepted = True
                break
        if not accepted:
            if grad_scale < 1e-8 * max(chi2, 1.0):
                break  # stationary point: nothing left to gain
            raise ConvergenceError(
                f"no downhill step found at iteration {iteration} "
                f"(damping exhausted, |gradient| ~ {grad_scale:.3e})"
            )
        if drop < CHI2_RTOL or step_norm < STEP_ATOL:
            break
    else:
        raise ConvergenceError(f"iteration cap {MAX_ITERATIONS} exceeded")

    if x.tobytes() != jac_x.tobytes():
        jac = numerical_jacobian(fun, x, x_scale, bounds, evaluate)
    return LSQSolution(x, chi2, jac, iteration, tuple(history), x_scale.copy())


def covariance_from_jacobian(
    jac: NDArray[np.float64], x_scale: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_]]:
    """Covariance = (J^T J)^-1 on the identifiable subspace.

    The inversion runs on the column-scaled Jacobian (parameters here span
    many orders of magnitude, and the raw normal matrix would be artificially
    ill-conditioned), then transforms back.  Directions with scaled singular
    value below RCOND * max are excluded; parameters dominated by such a flat
    direction get infinite error.  Returns (covariance, one-sigma errors,
    mask of unidentifiable parameters).
    """
    n = jac.shape[1]
    scale = np.asarray(x_scale, dtype=float)
    normal = (jac * scale).T @ (jac * scale)
    _, s, vt = np.linalg.svd(normal)
    good = s > RCOND * (s[0] if s.size else 0.0)
    if not np.any(good):
        return np.full((n, n), np.inf), np.full(n, np.inf), np.ones(n, dtype=bool)
    cov_scaled = (vt[good].T / s[good]) @ vt[good]
    cov = cov_scaled * np.outer(scale, scale)
    null_mask = np.zeros(n, dtype=bool)
    for row in vt[~good]:
        null_mask |= np.abs(row) > 0.5
    errors = np.sqrt(np.maximum(np.diag(cov), 0.0))
    errors[null_mask] = np.inf
    return cov, errors, null_mask


def _build_result(
    names: tuple[str, ...], solution: LSQSolution, n_rows: int
) -> FitResult:
    cov, errors, null_mask = covariance_from_jacobian(
        solution.jacobian, solution.x_scale
    )
    return FitResult(
        names=names,
        values=solution.x.copy(),
        errors=errors,
        covariance=cov,
        chi2=solution.chi2,
        dof=n_rows - len(names),
        n_iter=solution.n_iter,
        unidentifiable=tuple(n for n, bad in zip(names, null_mask) if bad),
    )


def _check_enough_rows(n_rows: int, n_params: int, noun: str) -> None:
    """A fit needs more data rows than free parameters."""
    if n_rows <= n_params:
        plural = "s" if n_params != 1 else ""
        raise DatasetError(f"{n_rows} {noun} cannot constrain {n_params} parameter{plural}")


def _check_level_range(rows: list[ObservationRow], n_levels: int, i: float) -> None:
    """Every level a row names must be one of the CF levels 1..n_levels, and
    every m_z one of the nuclear projections -i, -i + 1, ..., i."""
    for k, row in enumerate(rows):
        if row.n_init > n_levels or (row.n_final is not None and row.n_final > n_levels):
            raise DatasetError(f"row {k}: level index out of range (have 1..{n_levels})")
        if row.m_z is not None and (abs(row.m_z) > i or (row.m_z + i) % 1 != 0):
            raise DatasetError(
                f"row {k}: m_z {row.m_z:g} is not a nuclear projection (have {-i:g}..{i:g})"
            )


def predict_lines_first_order(
    params: CFParameters,
    a_j: float,
    rows: list[ObservationRow],
    system: SpinSystem,
) -> NDArray[np.float64]:
    """Transition energies from H_CF plus the first-order hyperfine shift.

    An hf row (i -> f, m_z) is predicted as E_f - E_i + a_j (jz_f - jz_i) m_z
    with jz the sigma = +1 branch moment (0 for singlets); cf rows as the
    plain CF energy difference (the first-order shift averages out over m_z);
    moment rows as jz of the requested level.
    """
    return _first_order_predictor(rows, system)(params, a_j)


def _first_order_predictor(rows: list[ObservationRow], system: SpinSystem):
    """predict_lines_first_order as a function of (params, a_j); each row's
    levels are indexed once, and checked against the levels of every point."""
    init = np.array([row.n_init - 1 for row in rows], dtype=int)
    final = np.array([row.n_init - 1 if row.n_final is None else row.n_final - 1 for row in rows], dtype=int)
    hf = np.array([row.kind == "hf" for row in rows], dtype=bool)
    moment = np.array([row.kind == "moment" for row in rows], dtype=bool)
    m_z = np.array([row.m_z for row in rows if row.kind == "hf"], dtype=float)

    def predict(params: CFParameters, a_j: float) -> NDArray[np.float64]:
        levels = cf_levels(params, system)
        _check_level_range(rows, len(levels), system.i)
        energy = np.array([level.energy for level in levels])
        jz = np.array([level.jz_expect for level in levels])
        out = energy[final] - energy[init]
        out[hf] += a_j * (jz[final[hf]] - jz[init[hf]]) * m_z
        out[moment] = jz[init[moment]]
        return out

    return predict


def fit_cf_aj(
    dataset: TransitionDataset,
    initial: CFParameters,
    initial_aj: float,
    system: SpinSystem,
) -> FitResult:
    """Simultaneous weighted fit of the CF coefficients and a_j.

    The q = -4 rank-4 coefficient stays pinned at its ``initial`` value (zero
    by convention); the parameters ``CF_AJ_PARAM_NAMES`` are free.
    Deterministic for fixed inputs.
    """
    _check_enough_rows(len(dataset.rows), len(CF_AJ_PARAM_NAMES), "rows")
    full0 = dict(initial.items(), a_j=initial_aj)
    values = np.array([full0[n] for n in CF_AJ_PARAM_NAMES])

    at_point = _first_order_predictor(dataset.rows, system)
    predict = lambda x: at_point(*_cf_aj_point(x, initial))

    return _weighted_fit(CF_AJ_PARAM_NAMES, dataset.rows, predict, values, np.maximum(np.abs(values), 1e-8))


def _cf_aj_point(x: NDArray[np.float64], template: CFParameters) -> tuple[CFParameters, float]:
    """(CF parameters, a_j) at a vector over ``CF_AJ_PARAM_NAMES``; b4m4 is the template's."""
    values = dict(zip(CF_AJ_PARAM_NAMES, map(float, x)))
    a_j = values.pop("a_j")
    return replace(template, **values), a_j


def cf_parameters_from_result(
    result: FitResult, template: CFParameters, template_aj: float
) -> tuple[CFParameters, float]:
    """The fitted (CF parameters, a_j) of a ``fit_cf_aj`` result, b4m4 from
    ``template``.  ``template_aj`` is not read: such a result always fits a_j."""
    return _cf_aj_point(result.values, template)


def predict_lines_exact(
    params: CFParameters,
    hf: HyperfineConstants,
    rows: list[ObservationRow],
    system: SpinSystem,
) -> NDArray[np.float64]:
    """Predictions from the exactly solved electron-nuclear spectrum.

    hf rows use the labelled level energies on the sigma = +1 branches
    (Kramers degeneracy makes the branch choice immaterial); cf rows are
    hyperfine-averaged means; moment rows come from the CF eigenvectors.
    """
    return _exact_predictor(params, rows, system)(hf)


def _exact_predictor(params: CFParameters, rows: list[ObservationRow], system: SpinSystem):
    """predict_lines_exact as a function of the hyperfine constants alone.

    The solved H_CF point is taken, the rows' levels checked and each row
    mapped to the indices of its labels, once; every evaluation gathers from
    the label energies that the point's ``label`` returns.
    """
    point = _cf_point(params, system)
    _check_level_range(rows, len(point.levels), system.i)
    index = {label: k for k, label in enumerate(point.product_basis[1])}
    at = lambda n, m_z: index[(n, +1, float(m_z))]
    hf_rows, cf_rows, moment_rows = ([k for k, row in enumerate(rows) if row.kind == kind] for kind in ROW_KINDS)
    hf_init = [at(rows[k].n_init, rows[k].m_z) for k in hf_rows]
    hf_final = [at(rows[k].n_final, rows[k].m_z) for k in hf_rows]
    cf_init = [[at(rows[k].n_init, m) for m in system.m_i] for k in cf_rows]
    cf_final = [[at(rows[k].n_final, m) for m in system.m_i] for k in cf_rows]
    moments = [point.levels[rows[k].n_init - 1].jz_expect for k in moment_rows]

    def predict(hf: HyperfineConstants) -> NDArray[np.float64]:
        energy = point.label(hf)
        out = np.empty(len(rows))
        out[moment_rows] = moments
        out[cf_rows] = [float(np.mean(diffs)) for diffs in energy[cf_final] - energy[cf_init]]
        out[hf_rows] = energy[hf_final] - energy[hf_init]
        return out

    return predict


def fit_b(
    dataset: TransitionDataset,
    params: CFParameters,
    a_j: float,
    system: SpinSystem,
    initial_b: float,
) -> FitResult:
    """One-parameter fit of the quadrupolar constant at fixed CF parameters.

    H_CF is solved once per fit and the solved point held, and each row
    mapped to its label indices once; each objective evaluation solves the
    full electron-nuclear Hamiltonian at the held point and gathers the rows
    from its label energies; see ``predict_lines_exact``.

    The evaluations run two at a time, on the calling thread and on one
    worker thread that ends with the fit (see the module docstring); the
    result is the same as from one evaluation at a time.
    """
    _check_enough_rows(len(dataset.rows), 1, "rows")
    predict = _exact_predictor(params, dataset.rows, system)
    at_b = lambda x: predict(HyperfineConstants(a_j, float(x[0])))
    from concurrent.futures import ThreadPoolExecutor  # only fit_b needs it: kept off the import path

    with ThreadPoolExecutor(max_workers=1) as pool:
        return _weighted_fit(
            ("b_quad",), dataset.rows, at_b, np.array([initial_b]), np.array([max(abs(initial_b), 1e-3)]),
            _evaluate_two_wide(pool),
        )


def _weighted_fit(
    names: tuple[str, ...],
    rows: list[ObservationRow],
    predict,
    x0: NDArray[np.float64],
    x_scale: NDArray[np.float64],
    evaluate=map,
) -> FitResult:
    """Fit ``predict(x)`` to the rows' values by ``damped_least_squares``,
    each residual weighted by the row's 1/sigma."""
    data = np.array([row.value for row in rows])
    sigmas = np.array([row.sigma for row in rows])
    solution = damped_least_squares(lambda x: (data - predict(x)) / sigmas, x0, x_scale=x_scale, evaluate=evaluate)
    return _build_result(names, solution, len(rows))


def fit_refractive(points: NDArray[np.float64]) -> FitResult:
    """Least-squares fit of n(nu) = a/(nu - nu0) + c by variable projection.

    ``points`` has columns (nu, n) or (nu, n, sigma).  At a fixed pole the
    model is linear in a and c, which one weighted linear solve gives; what
    is left is the profile chi^2(nu0) (Golub & Pereyra 1973).  On each side of
    the data it is scanned at ``POLE_SCAN_POINTS`` distances from the nearest
    data point, log-spaced over ``POLE_RANGE`` times the data span, and the
    best scan bracket is refined by ``GOLDEN_STEPS`` golden-section steps; the
    side with the lower chi^2 wins.  ``n_iter`` is the number of
    golden-section steps, 2 * GOLDEN_STEPS.
    The covariance comes from the closed-form Jacobian at the optimum.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError("points must have columns (nu, n[, sigma])")
    _check_enough_rows(points.shape[0], 3, "points")
    nu = points[:, 0]
    sigmas = points[:, 2] if points.shape[1] == 3 else np.ones_like(nu)
    y = points[:, 1] / sigmas
    if (distinct := np.unique(nu).size) < 3:
        raise DatasetError(f"{distinct} distinct frequencies cannot place a pole (need 3)")
    lo, hi = float(nu.min()), float(nu.max())
    if hi + (hi - lo) * POLE_RANGE[0] == hi or lo - (hi - lo) * POLE_RANGE[0] == lo:
        raise DatasetError(f"frequency span {hi - lo:.3g} cm^-1 is too narrow to place a pole beside {lo:g}")

    def solve(nu0: float) -> tuple[float, float, NDArray[np.float64]]:
        design = np.column_stack([1.0 / (nu - nu0), np.ones_like(nu)]) / sigmas[:, None]
        (a, c), *_ = np.linalg.lstsq(design, y, rcond=None)
        return a, c, y - design @ (a, c)

    def chi2(nu0: float) -> float:
        r = solve(nu0)[2]
        return float(r @ r)

    scan = np.linspace(*np.log10(POLE_RANGE), POLE_SCAN_POINTS)
    poles = []
    for edge, direction in ((hi, 1.0), (lo, -1.0)):
        pole = lambda s: edge + direction * (hi - lo) * 10.0**s
        profile = lambda s: chi2(pole(s))
        k = int(np.argmin([profile(s) for s in scan]))
        poles.append(pole(_golden_minimum(profile, scan[max(k - 1, 0)], scan[min(k + 1, scan.size - 1)])))
    nu0 = min(poles, key=chi2)

    a, c, r = solve(nu0)
    x = 1.0 / (nu - nu0)
    jac = np.column_stack([x, a * x**2, np.ones_like(nu)]) / sigmas[:, None]
    values = np.array([a, nu0, c])
    solution = LSQSolution(values, float(r @ r), jac, 2 * GOLDEN_STEPS, (), np.maximum(np.abs(values), 1.0))
    return _build_result(("a", "nu0", "c"), solution, len(nu))


def _golden_minimum(f, left: float, right: float) -> float:
    """Where f is lowest on [left, right], to GOLDEN_STEPS golden-section
    steps, if f has one minimum there."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(GOLDEN_STEPS):
        inner = right - g * (right - left), left + g * (right - left)
        left, right = (left, inner[1]) if f(inner[0]) <= f(inner[1]) else (inner[0], right)
    return 0.5 * (left + right)
