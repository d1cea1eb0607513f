"""Weighted nonlinear least squares for spectroscopy parameter extraction.

One damped Gauss-Newton engine (Levenberg-style damping, factor 10 up/down,
central-difference Jacobians) drives three fits:

* simultaneous crystal-field + dipolar-coupling fit against measured
  transition energies, predicted from H_CF plus the first-order hyperfine
  shift;
* a one-parameter fit of the quadrupolar constant, with predictions from the
  full electron-nuclear diagonalization;
* the far-infrared refractive-index model n(nu) = a/(nu - nu0) + c.

Datasets mix hyperfine-resolved rows, hyperfine-averaged rows (predicted as
the mean over m_z) and moment pseudo-observations constraining <J_z> of a
doublet.  Uncertainties weight the residuals; the covariance is the inverse
of J^T W J at the optimum, restricted to the identifiable subspace: flat
parameter directions (e.g. a q = -4 coefficient starting from zero, where
the spectrum is stationary) are reported as unidentifiable with infinite
error rather than silently inverted.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .angular import SpinSystem
from .hamiltonian import CF_COEFFICIENTS, CFParameters, HyperfineConstants, cf_levels, hf_levels_exact

#: free parameters of fit_cf_aj: every CF coefficient but the gauged b4m4, then a_j
CF_AJ_PARAM_NAMES = tuple(name for name in CF_COEFFICIENTS if name != "b4m4") + ("a_j",)

ROW_KINDS = ("hf", "cf", "moment")

#: central-difference Jacobian step, relative to each parameter's scale
JAC_REL_STEP = 1e-6
#: a fit stops once an accepted step lowers chi^2 by less than this fraction
CHI2_RTOL = 1e-12
#: ... or moves the parameters by less than this norm
STEP_ATOL = 1e-10
#: scaled singular values below RCOND times the largest span flat directions
RCOND = 1e-10


class ConvergenceError(RuntimeError):
    """The optimizer hit its iteration cap or could not find a downhill step."""


class DatasetError(ValueError):
    """A dataset is malformed or cannot constrain the fit; file errors carry the row number."""


@dataclass(frozen=True)
class ObservationRow:
    """One measured quantity entering a fit.

    kind "hf": a hyperfine-resolved transition energy at fixed m_z.
    kind "cf": a transition energy averaged over the hyperfine structure
        (m_z is None).
    kind "moment": a pseudo-observation of <J_z> on the sigma = +1 branch of
        CF level n_init (n_final and m_z are None).
    """

    kind: str
    n_init: int
    n_final: int | None
    m_z: float | None
    value: float
    sigma: float

    def __post_init__(self) -> None:
        if self.kind not in ROW_KINDS:
            raise ValueError(f"unknown row kind {self.kind!r}")
        if not self.sigma > 0:
            raise ValueError(f"row uncertainty must be positive, got {self.sigma}")
        if self.kind == "hf" and (self.m_z is None or self.n_final is None):
            raise ValueError("hf rows need both a final level and an m_z")
        if self.kind == "cf" and self.n_final is None:
            raise ValueError("cf rows need a final level")
        if self.n_init < 1 or (self.n_final is not None and self.n_final < 1):
            raise ValueError(
                f"level indices must be >= 1, got {self.n_init} and {self.n_final}"
            )
        if self.m_z is not None and not float(2 * self.m_z).is_integer():
            raise ValueError(f"m_z must be an integer or half-integer, got {self.m_z}")


@dataclass
class TransitionDataset:
    """The rows of one measured dataset."""

    rows: list[ObservationRow]


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
    residuals: NDArray[np.float64]
    n_iter: int
    unidentifiable: tuple[str, ...] = ()

    @property
    def params(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    @property
    def param_errors(self) -> dict[str, float]:
        return {n: float(e) for n, e in zip(self.names, self.errors)}


@dataclass(frozen=True)
class RefractiveModel:
    """Phenomenological index of refraction with a pole above the fit window."""

    a: float
    nu0: float
    c: float

    def evaluate(self, nu: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.a / (np.asarray(nu, dtype=float) - self.nu0) + self.c


@dataclass(frozen=True)
class LSQSolution:
    """Raw optimizer output; FitResult wraps it with names and covariance."""

    x: NDArray[np.float64]
    residuals: NDArray[np.float64]
    chi2: float
    jacobian: NDArray[np.float64]
    n_iter: int
    chi2_history: tuple[float, ...]
    x_scale: NDArray[np.float64]


def numerical_jacobian(fun, x, x_scale):
    """Central-difference Jacobian of a residual vector function."""
    x = np.asarray(x, dtype=float)
    columns = []
    for k in range(len(x)):
        h = JAC_REL_STEP * x_scale[k]
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        columns.append((fun(xp) - fun(xm)) / (2.0 * h))
    return np.array(columns).T


def damped_least_squares(
    fun, x0, x_scale=None, bounds=None, max_iter: int = 200
) -> LSQSolution:
    """Minimize |fun(x)|^2 by damped Gauss-Newton iteration.

    The normal matrix is damped with mu * diag(J^T J) (floored so that flat
    directions stay regular); mu shrinks by 10 on an accepted step and grows
    by 10 on a rejected one, so the accepted chi^2 sequence is monotonically
    non-increasing.  A proposed step is rejected when it increases chi^2 or
    produces non-finite residuals (e.g. a model evaluated outside its domain).
    Steps are clipped to ``bounds`` when given.

    Stops when the relative chi^2 drop falls below ``CHI2_RTOL`` or the step
    norm below ``STEP_ATOL``.  Raises ConvergenceError when ``max_iter`` is
    exceeded or no downhill step exists while the gradient is still large.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x_scale is None:
        x_scale = np.maximum(np.abs(x), 1e-8)
    else:
        x_scale = np.asarray(x_scale, dtype=float)
    lo, hi = (None, None) if bounds is None else bounds

    r = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the starting point")
    chi2 = float(r @ r)
    history = [chi2]
    mu = 1e-3

    for iteration in range(1, max_iter + 1):
        jac = numerical_jacobian(fun, x, x_scale)
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
            x_new = x + step
            if lo is not None:
                x_new = np.maximum(x_new, lo)
            if hi is not None:
                x_new = np.minimum(x_new, hi)
            r_new = np.asarray(fun(x_new), dtype=float)
            chi2_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
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
                break  # stationary point: nothing left to gain
            raise ConvergenceError(
                f"no downhill step found at iteration {iteration} "
                f"(damping exhausted, |gradient| ~ {grad_scale:.3e})"
            )
        if drop < CHI2_RTOL or step_norm < STEP_ATOL:
            break
    else:
        raise ConvergenceError(f"iteration cap {max_iter} exceeded")

    jac = numerical_jacobian(fun, x, x_scale)
    return LSQSolution(x, r, chi2, jac, iteration, tuple(history), x_scale.copy())


def covariance_from_jacobian(
    jac: NDArray[np.float64], x_scale: NDArray[np.float64] | None = None
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
    scale = np.ones(n) if x_scale is None else np.asarray(x_scale, dtype=float)
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
        residuals=solution.residuals.copy(),
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
    levels = cf_levels(params, system)
    _check_level_range(rows, len(levels), system.i)
    by_n = {lv.n: lv for lv in levels}
    out = np.empty(len(rows))
    for k, row in enumerate(rows):
        if row.kind == "moment":
            out[k] = by_n[row.n_init].jz_expect
            continue
        init = by_n[row.n_init]
        final = by_n[row.n_final]
        out[k] = final.energy - init.energy
        if row.kind == "hf":
            out[k] += a_j * (final.jz_expect - init.jz_expect) * row.m_z
    return out


def fit_cf_aj(
    dataset: TransitionDataset,
    initial: CFParameters,
    initial_aj: float,
    system: SpinSystem,
    fixed: tuple[str, ...] = (),
    max_iter: int = 200,
) -> FitResult:
    """Simultaneous weighted fit of the CF coefficients and a_j.

    The q = -4 rank-4 coefficient stays pinned at its ``initial`` value (zero
    by convention); any of the seven remaining parameters can be frozen via
    ``fixed``.  Deterministic for fixed inputs.
    """
    unknown = set(fixed) - set(CF_AJ_PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown parameter names in fixed: {sorted(unknown)}")
    free = tuple(n for n in CF_AJ_PARAM_NAMES if n not in fixed)
    if not free:
        raise ValueError("all parameters are fixed")
    _check_enough_rows(len(dataset.rows), len(free), "rows")

    full0 = dict(initial.items(), a_j=initial_aj)
    values = np.array([full0[n] for n in free])
    sigmas = np.array([row.sigma for row in dataset.rows])
    data = np.array([row.value for row in dataset.rows])

    def residual(xfree: NDArray[np.float64]) -> NDArray[np.float64]:
        cf, a_j = _merge_cf_aj(initial, initial_aj, dict(zip(free, xfree)))
        return (data - predict_lines_first_order(cf, a_j, dataset.rows, system)) / sigmas

    x_scale = np.maximum(np.abs(values), 1e-8)
    solution = damped_least_squares(residual, values, x_scale=x_scale, max_iter=max_iter)
    return _build_result(free, solution, len(dataset.rows))


def _merge_cf_aj(
    template: CFParameters, template_aj: float, values: dict[str, float]
) -> tuple[CFParameters, float]:
    """``template`` and ``template_aj`` with the named fitted values put in."""
    cf_values = {name: v for name, v in values.items() if name != "a_j"}
    return replace(template, **cf_values), values.get("a_j", template_aj)


def cf_parameters_from_result(
    result: FitResult, template: CFParameters, template_aj: float
) -> tuple[CFParameters, float]:
    """Merge fitted values back into a full parameter set."""
    return _merge_cf_aj(template, template_aj, result.params)


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
    """predict_lines_exact as a function of the hyperfine constants alone;
    the rows' levels are checked once."""
    levels = cf_levels(params, system)
    _check_level_range(rows, len(levels), system.i)

    def predict(hf: HyperfineConstants) -> NDArray[np.float64]:
        energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_levels_exact(params, hf, system)}
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


def fit_b(
    dataset: TransitionDataset,
    params: CFParameters,
    a_j: float,
    system: SpinSystem,
    initial_b: float = 0.04,
    max_iter: int = 200,
) -> FitResult:
    """One-parameter fit of the quadrupolar constant at fixed CF parameters.

    H_CF is solved once per fit, as the point ``cf_levels`` remembers; each
    objective evaluation solves the full electron-nuclear Hamiltonian;
    see ``predict_lines_exact``.
    """
    _check_enough_rows(len(dataset.rows), 1, "rows")
    sigmas = np.array([row.sigma for row in dataset.rows])
    data = np.array([row.value for row in dataset.rows])
    predict = _exact_predictor(params, dataset.rows, system)

    def residual(x: NDArray[np.float64]) -> NDArray[np.float64]:
        return (data - predict(HyperfineConstants(a_j, float(x[0])))) / sigmas

    x_scale = np.array([max(abs(initial_b), 1e-3)])
    solution = damped_least_squares(
        residual, np.array([initial_b]), x_scale=x_scale, max_iter=max_iter
    )
    return _build_result(("b_quad",), solution, len(dataset.rows))


def fit_refractive(
    points: NDArray[np.float64],
    initial: RefractiveModel,
    max_iter: int = 200,
) -> FitResult:
    """Least-squares fit of n(nu) = a/(nu - nu0) + c.

    ``points`` has columns (nu, n) or (nu, n, sigma).  The pole nu0 must
    start outside the data range; any step that would drag it inside is
    rejected by the optimizer (non-finite residuals), which raises the
    damping instead of crossing the pole.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError("points must have columns (nu, n[, sigma])")
    _check_enough_rows(points.shape[0], 3, "points")
    nu = points[:, 0]
    n_data = points[:, 1]
    sigmas = points[:, 2] if points.shape[1] == 3 else np.ones_like(nu)
    lo, hi = float(nu.min()), float(nu.max())
    if lo <= initial.nu0 <= hi:
        raise DatasetError(
            f"initial pole position {initial.nu0} lies inside the data range "
            f"[{lo}, {hi}]"
        )

    def residual(x: NDArray[np.float64]) -> NDArray[np.float64]:
        a, nu0, c = x
        if lo <= nu0 <= hi:
            return np.full_like(n_data, np.inf)
        return (n_data - (a / (nu - nu0) + c)) / sigmas

    x0 = np.array([initial.a, initial.nu0, initial.c])
    solution = damped_least_squares(
        residual, x0, x_scale=np.maximum(np.abs(x0), 1.0), max_iter=max_iter
    )
    return _build_result(("a", "nu0", "c"), solution, len(nu))
