"""Command-line interface: level tables, hyperfine lines, fits, line-list
analysis and spectrum synthesis.

Exit codes (documented; 0 means success):

    2  command-line usage error (unknown option, missing argument)
    3  configuration file error
    4  dataset file error
    5  fit did not converge
    6  input/output error
    7  symmetry or labelling failure in the model
    1  any other error

All printed numbers use 8 significant digits; identical inputs produce
byte-identical output.
"""

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import analysis, datasets, fitting, perturbation, spectra
from .config import (
    ConfigError,
    MEASURED_LINES,
    REFERENCE,
    RunConfig,
    bundled_path,
    format_level,
    format_transition,
    load_config,
    parse_transition_label,
)
from .datasets import DatasetError
from .fitting import ConvergenceError
from .hamiltonian import (
    HyperfineConstants,
    LabelingError,
    SymmetryError,
    cf_levels,
    hf_levels_exact,
    quadrupole_undefined,
)

EXIT_CONFIG = 3
EXIT_DATASET = 4
EXIT_CONVERGENCE = 5
EXIT_IO = 6
EXIT_MODEL = 7

_ERROR_CODES = (
    (ConfigError, EXIT_CONFIG),
    (DatasetError, EXIT_DATASET),
    (ConvergenceError, EXIT_CONVERGENCE),
    ((SymmetryError, LabelingError), EXIT_MODEL),
    (OSError, EXIT_IO),
)


class _ExitCodes(click.Group):
    """Runs a command and turns any error it raises into its exit code; click's
    own usage errors pass through and exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:  # noqa: BLE001 - the one funnel to exit codes
            click.echo(f"error: {exc}", err=True)
            sys.exit(next((code for types, code in _ERROR_CODES if isinstance(exc, types)), 1))


def _num(value: float) -> str:
    return f"{value:.8g}"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _check_levels(pairs: list[tuple[int, int]], n_levels: int, j: float) -> None:
    """Every transition must join two of the CF levels 1..n_levels."""
    for ni, nf in pairs:
        if max(ni, nf) > n_levels:
            raise ConfigError(f"unknown transition {format_transition(j, ni, nf)}: have levels 1..{n_levels}")


def _load(config_path: str | None) -> RunConfig:
    return REFERENCE if config_path is None else load_config(config_path)


@click.group(cls=_ExitCodes)
def main() -> None:
    """Hyperfine-resolved crystal-field spectroscopy toolkit."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Configuration file; defaults to the bundled reference model.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default=None, help="Write here instead of stdout.")
def levels(config_path, fmt, output):
    """Crystal-field level table: index, energy, irrep, degeneracy, <J_z>."""
    cfg = _load(config_path)
    lvls = cf_levels(cfg.cf, cfg.system)
    rows = [
        {
            "level": format_level(cfg.system.j, lv.n),
            "energy_cm1": float(_num(lv.energy)),
            "irrep": lv.irrep,
            "degeneracy": lv.degeneracy,
            "jz": float(_num(lv.jz_expect)) if lv.degeneracy == 2 else None,
        }
        for lv in lvls
    ]
    if fmt == "json":
        text = json.dumps({"levels": rows}, indent=2) + "\n"
    else:
        text = datasets.format_table(list(rows[0]), [list(r.values()) for r in rows])
    _emit(text, output)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--transition", required=True, help="Transition label, e.g. 8.1-8.2.")
@click.option("--compare", is_flag=True,
              help="Add the perturbative energies and their deviation from exact.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default=None)
def hf(config_path, transition, compare, fmt, output):
    """Hyperfine-resolved line positions for one transition."""
    cfg = _load(config_path)
    ni, nf = parse_transition_label(transition, cfg.system.j)
    lvls = cf_levels(cfg.cf, cfg.system)
    _check_levels([(ni, nf)], len(lvls), cfg.system.j)
    hf_lvls = hf_levels_exact(cfg.cf, cfg.hyperfine, cfg.system)
    lines = spectra.transition_lines(hf_lvls, ni, nf)

    by_n = {lv.n: lv for lv in lvls}
    singlet_pair = by_n[ni].degeneracy == 1 and by_n[nf].degeneracy == 1
    if singlet_pair:
        groups = [
            (f"±{datasets.format_half_integer(m)}", [ln for ln in lines if abs(ln.m_z) == m])
            for m in sorted({abs(ln.m_z) for ln in lines})
        ]
    else:
        groups = [(datasets.format_half_integer(ln.m_z), [ln]) for ln in sorted(lines, key=lambda l: l.m_z)]

    @functools.cache
    def ladder(n, sigma):
        """delta at each m_z of branch (n, sigma): one delta_full call per branch."""
        m = cfg.system.m_i
        return dict(zip(m.tolist(), perturbation.delta_full(n, sigma, m, lvls, cfg.hyperfine, cfg.system).tolist()))

    def perturbative_energy(line):
        si, sf = line.branches
        d_i, d_f = ladder(ni, si)[line.m_z], ladder(nf, sf)[line.m_z]
        return by_n[nf].energy + d_f - by_n[ni].energy - d_i

    out_rows = []
    for m_z, members in groups:
        energy = float(np.mean([ln.energy for ln in members]))
        entry = {"m_z": m_z, "energy_cm1": float(_num(energy))}
        if compare:
            pert = float(np.mean([perturbative_energy(ln) for ln in members]))
            entry["perturbative_cm1"] = float(_num(pert))
            entry["deviation_cm1"] = float(_num(pert - energy))
        out_rows.append(entry)

    if fmt == "json":
        text = json.dumps({"transition": transition, "lines": out_rows}, indent=2) + "\n"
    else:
        text = datasets.format_table(list(out_rows[0]), [list(entry.values()) for entry in out_rows])
    _emit(text, output)


def _fit_report(result: fitting.FitResult, measured, sigmas, predictions) -> dict:
    return {
        "parameters": {
            name: {"value": float(_num(v)), "error": (None if not np.isfinite(e) else float(_num(e)))}
            for name, v, e in zip(result.names, result.values, result.errors)
        },
        "unidentifiable": list(result.unidentifiable),
        "covariance": [[float(_num(c)) if np.isfinite(c) else None for c in row]
                       for row in np.atleast_2d(result.covariance)],
        "chi2": float(_num(result.chi2)),
        "dof": result.dof,
        "iterations": result.n_iter,
        "residuals": [
            {
                "row": k,
                "measured": float(_num(value)),
                "predicted": float(_num(pred)),
                "sigma": float(_num(sigma)),
                "residual": float(_num(value - pred)),
            }
            for k, (value, sigma, pred) in enumerate(zip(measured, sigmas, predictions))
        ],
    }


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--dataset", "dataset_path", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice(["cf_aj", "b", "refindex"]), required=True)
@click.option("--output", type=click.Path(), default=None)
def fit(config_path, dataset_path, mode, output):
    """Weighted least-squares fits; writes a JSON report."""
    cfg = _load(config_path)
    if mode == "b" and (why := quadrupole_undefined(cfg.system)):
        raise ConfigError(f"fit --mode b fits the quadrupolar constant: {why}")
    if mode == "refindex":
        points = datasets.read_refractive_points(dataset_path)
        result = fitting.fit_refractive(points)
        a, nu0, c = result.values
        predictions = a / (points[:, 0] - nu0) + c
        sigmas = points[:, 2] if points.shape[1] == 3 else np.ones(len(points))
        report = _fit_report(result, points[:, 1], sigmas, predictions)
    else:
        data = datasets.read_dataset(dataset_path, j=cfg.system.j)
        if mode == "cf_aj":
            result = fitting.fit_cf_aj(data, cfg.cf, cfg.hyperfine.a_j, cfg.system)
            best_cf, best_aj = fitting.cf_parameters_from_result(
                result, cfg.cf, cfg.hyperfine.a_j
            )
            predictions = fitting.predict_lines_first_order(
                best_cf, best_aj, data.rows, cfg.system
            )
        else:
            start = cfg.hyperfine.b_quad or REFERENCE.hyperfine.b_quad
            result = fitting.fit_b(data, cfg.cf, cfg.hyperfine.a_j, cfg.system, initial_b=start)
            best_hf = HyperfineConstants(cfg.hyperfine.a_j, float(result.values[0]))
            predictions = fitting.predict_lines_exact(
                cfg.cf, best_hf, data.rows, cfg.system
            )
        report = _fit_report(
            result, [r.value for r in data.rows], [r.sigma for r in data.rows], predictions
        )
    report["mode"] = mode
    _emit(json.dumps(report, indent=2) + "\n", output)


@main.command()
@click.option("--dataset", "dataset_path", type=click.Path(), default=None,
              help="Line-list CSV; defaults to the bundled measured dataset.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@click.option("--output", type=click.Path(), default=None)
def analyze(dataset_path, fmt, output):
    """Difference series, slopes and the quadratic-correction coefficients."""
    if dataset_path is None:
        dataset_path = bundled_path(MEASURED_LINES)
    data = datasets.read_dataset(dataset_path)
    series, slopes, ladders = {}, {}, {}
    for (ni, nf), which in analysis.FAMILY_INDEX.items():
        lines = [
            spectra.TransitionLine(row.n_init, row.n_final, row.m_z, row.value, row.sigma)
            for row in data.rows
            if row.kind == "hf" and (row.n_init, row.n_final) == (ni, nf)
        ]
        family = format_transition(datasets.DATASET_J, ni, nf)
        if len(lines) == 0:
            raise DatasetError(f"dataset lacks the {family} family needed for the analysis")
        try:
            series[which] = analysis.difference_series(lines)
            slopes[which] = analysis.fit_slope(series[which])
        except ValueError as exc:
            raise DatasetError(f"{dataset_path}: {family} family: {exc}") from exc
        low, high = min(ln.m_z for ln in lines), max(ln.m_z for ln in lines)
        ladders[family] = f"{datasets.format_half_integer(low)}..{datasets.format_half_integer(high)}"
    try:
        lam1 = analysis.extract_lambda1(series[2], series[3])
        lam2, lam3 = analysis.extract_lambda23(series[1], series[2], series[3])
    except ValueError as exc:
        grids = ", ".join(f"{family} m_z {ladder}" for family, ladder in ladders.items())
        raise DatasetError(f"{dataset_path}: {exc}: {grids}") from exc
    lambdas = {"lambda1": lam1, "lambda2": lam2, "lambda3": lam3}

    if fmt == "json":
        report = {
            "difference_series": {
                f"D{which}": {
                    "m_z": [datasets.format_half_integer(m) for m in series[which].m_z],
                    "values_cm1": [float(_num(v)) for v in series[which].values],
                }
                for which in sorted(series)
            },
            "slopes": {
                f"D{which}": {
                    "slope_cm1": float(_num(slopes[which].slope)),
                    "slope_err_cm1": float(_num(slopes[which].slope_err)),
                    "s_reported": float(_num(-slopes[which].slope)),
                }
                for which in sorted(slopes)
            },
            "lambda": {
                name: {"value_cm1": float(_num(est.value)), "error_cm1": float(_num(est.error))}
                for name, est in lambdas.items()
            },
        }
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = []
        for which in sorted(slopes):
            s = slopes[which]
            rows += [[f"slope(D{which})", s.slope, s.slope_err], [f"s{which}", -s.slope, s.slope_err]]
        rows += [[name, est.value, est.error] for name, est in lambdas.items()]
        text = datasets.format_table(["quantity", "value_cm1", "error_cm1"], rows)
    _emit(text, output)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--transition", "transition_labels", multiple=True,
              help="Override the configured transition list (repeatable).")
@click.option("--output", type=click.Path(), required=True)
def synth(config_path, transition_labels, output):
    """Synthesize an absorbance spectrum and write it as two-column CSV."""
    cfg = _load(config_path)
    if cfg.grid is None:
        raise ConfigError("config has no [grid] section; synthesis needs one")
    start, stop, step = cfg.grid
    grid = np.arange(start, stop + 0.5 * step, step)
    pairs = (
        [parse_transition_label(t, cfg.system.j) for t in transition_labels]
        if transition_labels
        else cfg.transitions
    )
    lines = []
    if pairs:
        _check_levels(pairs, len(cf_levels(cfg.cf, cfg.system)), cfg.system.j)
        hf_lvls = hf_levels_exact(cfg.cf, cfg.hyperfine, cfg.system)
        weights = spectra.boltzmann_weights(hf_lvls, cfg.temperature)
        for ni, nf in pairs:
            lines.extend(spectra.transition_lines(hf_lvls, ni, nf, weights=weights))
    shape = spectra.PeakModel(cfg.lineshape, 0.0, cfg.fwhm, cfg.amplitude)
    spectrum = spectra.synthesize(lines, shape, grid, cfg.isotope)
    datasets.write_spectrum(output, spectrum)


if __name__ == "__main__":
    main()
