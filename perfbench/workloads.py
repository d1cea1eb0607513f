"""Seeded inputs, one operation and its output check for each workload.

Every workload draws all of its inputs from the seed before timing starts;
the program only ever sees those generated inputs.  An operation either
returns an output that ``check`` accepts, raises ``CheckFailed`` from
``check``, or raises an exception of its own.  A documented refusal
(``LabelingError`` and the like) is the program's answer to an input it
declines; ``check_refusal`` accepts it only if the op's own model point is
one hfspec must refuse.  All outcomes are counted by the caller; nothing is
filtered or retried.

forward_scan  parameter scan around the bundled Ho:LiYF4 reference
refine        least-squares fits of seeded synthetic measurements
cli           one closed-loop caller of ``python -m hfspec.cli``
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from hfspec import (
    CFParameters,
    HyperfineConstants,
    LabelingError,
    PeakModel,
    TransitionLine,
    boltzmann_weights,
    build_cf_hamiltonian,
    build_hf_hamiltonian,
    cf_levels,
    difference_series,
    extract_lambda1,
    extract_lambda23,
    fit_b,
    fit_cf_aj,
    fit_peaks,
    hf_levels_exact,
    lambda_from_exact,
    lambda_from_model,
    predict_lines_exact,
    predict_lines_first_order,
    synthesize,
    transition_lines,
)
from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, bundled_path, load_config
from hfspec.datasets import read_dataset
from hfspec.fitting import ObservationRow, TransitionDataset, cf_parameters_from_result

#: the three transition families among the three lowest CF levels
FAMILIES = ((1, 2), (1, 3), (2, 3))
#: CF coefficients that are non-zero at the reference and get drawn
CF_NAMES = ("b20", "b40", "b44", "b60", "b64")
#: b_quad of every draw, cm-1
B_QUAD_MEAN, B_QUAD_SD = 0.04, 0.004
#: documented weight below which hfspec refuses a labelling
LABEL_CUT = 0.5
#: eigenvalues closer than this, cm-1, are one energy cluster
CLUSTER_GAP = 1e-7

HERE = Path(__file__).resolve().parent
CLI_EXPECTED = HERE / "cli_expected.json"


class CheckFailed(Exception):
    """An operation returned an output that fails its correctness check."""


def lowest_label_weight(cf: CFParameters, hf: HyperfineConstants, system) -> float:
    """Lowest weight of any (n, sigma, m_z) label on its assigned energy cluster.

    Computed here, apart from ``hf_levels_exact``, by the labelling rule that
    hfspec documents: an optimal one-to-one assignment of CF x nuclear product
    states to eigenstates, with each label's weight summed over the cluster of
    equal energies that holds its eigenstate.
    """
    eye = np.eye(system.dim_i)
    full = np.kron(build_cf_hamiltonian(cf, system).matrix, eye) + build_hf_hamiltonian(hf, system).matrix
    energies, vectors = np.linalg.eigh(full)
    product = np.array([
        np.kron(level.vectors[sigma], eye[k])
        for level in cf_levels(cf, system)
        for sigma in level.branches()
        for k in range(system.dim_i)
    ])
    overlaps = np.abs(product.conj() @ vectors) ** 2
    rows, cols = linear_sum_assignment(-overlaps)
    cluster = np.concatenate(([0], np.cumsum(np.diff(energies) > CLUSTER_GAP)))
    return min(float(overlaps[r, cluster == cluster[c]].sum()) for r, c in zip(rows, cols))


def check_labelling_refusal(cf: CFParameters, hf: HyperfineConstants, system, exc: Exception, point: str) -> None:
    """Accept a ``LabelingError`` only where the model point (cf, hf) cannot be labelled.

    ``point`` names (cf, hf) for the message.  It must be a point the op
    hands to hfspec, not one hfspec reaches from it (a fit step, say), and it
    must have a label below the documented 0.5 cut.  Raises ``CheckFailed``
    otherwise.
    """
    if not isinstance(exc, LabelingError):
        raise CheckFailed(f"unexpected refusal {type(exc).__name__}")
    weight = lowest_label_weight(cf, hf, system)
    if not weight < LABEL_CUT:
        raise CheckFailed(f"refused, but {point} labels with weight {weight:.3f}")


def _reference():
    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    return cfg, read_dataset(bundled_path(MEASURED_LINES))


def _draw_cf(rng, ref: CFParameters, spread: float) -> CFParameters:
    factors = 1.0 + spread * rng.standard_normal(len(CF_NAMES))
    values = {n: getattr(ref, n) * f for n, f in zip(CF_NAMES, factors)}
    return CFParameters(b6m4=ref.b6m4, b4m4=ref.b4m4, **values)


class ForwardScan:
    """Forward model at parameters drawn a few per cent around the reference."""

    #: relative standard deviation of each CF coefficient and of a_j
    spread = 0.05
    #: distinct draws per run; more than a run completes on this hardware
    pool = 2000

    def __init__(self) -> None:
        self.cfg, _ = _reference()
        start, stop, step = self.cfg.grid
        self.grid = np.arange(start, stop + 0.5 * step, step)
        self.shape = PeakModel(self.cfg.lineshape, 0.0, self.cfg.fwhm, self.cfg.amplitude)

    def inputs(self, rng) -> list:
        out = []
        ref = self.cfg
        for _ in range(self.pool):
            cf = _draw_cf(rng, ref.cf, self.spread)
            a_j = ref.hyperfine.a_j * (1.0 + self.spread * rng.standard_normal())
            b_quad = rng.normal(B_QUAD_MEAN, B_QUAD_SD)
            out.append((cf, HyperfineConstants(a_j, b_quad)))
        return out

    def op(self, x):
        cf, hf = x
        system = self.cfg.system
        levels = cf_levels(cf, system)
        hf_lvls = hf_levels_exact(cf, hf, system)
        lam_model = lambda_from_model(levels, hf, system)
        lam_exact = lambda_from_exact(cf, hf, system)
        weights = boltzmann_weights(hf_lvls, self.cfg.temperature)
        lines = [
            line
            for ni, nf in FAMILIES
            for line in transition_lines(hf_lvls, ni, nf, weights=weights)
        ]
        spectrum = synthesize(lines, self.shape, self.grid, self.cfg.isotope)
        return levels, hf_lvls, lam_model, lam_exact, spectrum

    def check(self, x, out) -> None:
        levels, hf_lvls, lam_model, lam_exact, spectrum = out
        system = self.cfg.system
        labels = {(h.n, h.sigma, h.m_z) for h in hf_lvls}
        if len(hf_lvls) != system.dim or len(labels) != system.dim:
            raise CheckFailed(f"{len(labels)} distinct labels on {len(hf_lvls)} levels, want {system.dim}")
        energy = {(h.n, h.sigma, h.m_z): h.energy for h in hf_lvls}
        for level in levels:
            if level.degeneracy != 2:
                continue
            for m in system.m_i:
                gap = abs(energy[(level.n, +1, float(m))] - energy[(level.n, -1, -float(m))])
                if not gap <= 1e-9:
                    raise CheckFailed(f"Kramers pair of level {level.n} at m_z={m} split by {gap:.3e} cm-1")
        lam = lam_model.as_tuple() + lam_exact.as_tuple()
        if not np.all(np.isfinite(lam)):
            raise CheckFailed(f"non-finite lambda {lam}")
        if not np.all(np.isfinite(spectrum.absorbance)) or spectrum.absorbance.min() < 0.0:
            raise CheckFailed("spectrum not finite or negative")

    def check_refusal(self, x, exc) -> None:
        check_labelling_refusal(*x, self.cfg.system, exc, "the scan point")


class Refine:
    """Backward fits of synthetic measurements drawn around a seeded truth."""

    #: relative standard deviation of the truth around the reference
    spread = 0.02
    #: distinct truths per run; more than a run completes on this hardware
    pool = 48
    #: margin of a doublet window beyond the line and its satellite, cm-1
    window = 0.045
    #: family whose isotope doublets are fitted (the configured 8.1-8.3)
    family = (1, 3)
    pull_limit = 5.0
    splitting_tol = 4e-4

    def __init__(self) -> None:
        self.cfg, self.measured = _reference()
        self.step = self.cfg.grid[2]
        self.shape = PeakModel(self.cfg.lineshape, 0.0, self.cfg.fwhm, self.cfg.amplitude)
        system = self.cfg.system
        # first-order layout: three hf families, cf rows for levels 4-13 and
        # moment rows for levels 1 and 6, as in the tests' synthetic dataset
        rows = [ObservationRow("hf", 1, nf, float(m), 0.0, s) for nf, s in ((2, 0.01), (3, 0.001)) for m in system.m_i]
        rows += [ObservationRow("hf", 2, 3, float(m), 0.0, 0.003) for m in system.m_i]
        rows += [ObservationRow("cf", 1, n, None, 0.0, 0.05) for n in range(4, 14)]
        rows += [ObservationRow("moment", n, None, None, 0.0, 0.02) for n in (1, 6)]
        self.first_order_layout = rows

    @staticmethod
    def _noisy(rows, truth, rng) -> TransitionDataset:
        values = truth + rng.normal(0.0, [r.sigma for r in rows])
        return TransitionDataset(
            [ObservationRow(r.kind, r.n_init, r.n_final, r.m_z, float(v), r.sigma) for r, v in zip(rows, values)]
        )

    def inputs(self, rng) -> list:
        system = self.cfg.system
        ref_hf = self.cfg.hyperfine
        out = []
        for _ in range(self.pool):
            cf = _draw_cf(rng, self.cfg.cf, self.spread)
            hf = HyperfineConstants(
                ref_hf.a_j * (1.0 + self.spread * rng.standard_normal()),
                rng.normal(B_QUAD_MEAN, B_QUAD_SD),
            )
            first = self._noisy(
                self.first_order_layout,
                predict_lines_first_order(cf, hf.a_j, self.first_order_layout, system),
                rng,
            )
            try:
                exact_truth = predict_lines_exact(cf, hf, self.measured.rows, system)
            except LabelingError:
                # hfspec cannot label this truth, so no exact-model dataset
                # exists; the draw is kept, and its op asks for one
                out.append((cf, hf, first, None, []))
                continue
            exact = self._noisy(self.measured.rows, exact_truth, rng)
            hf_lvls = hf_levels_exact(cf, hf, system)
            lines = transition_lines(hf_lvls, *self.family, weights=boltzmann_weights(hf_lvls, self.cfg.temperature))
            split = self.cfg.isotope.splitting
            windows = []
            for line in sorted(lines, key=lambda ln: ln.energy):
                grid = np.arange(line.energy - self.window, line.energy + split + self.window, self.step)
                windows.append(synthesize(lines, self.shape, grid, self.cfg.isotope))
            out.append((cf, hf, first, exact, windows))
        return out

    def op(self, x):
        cf, hf, first, exact, windows = x
        system = self.cfg.system
        if exact is None:
            # refused while the inputs were drawn; its refusal is the output
            predict_lines_exact(cf, hf, self.measured.rows, system)
            raise CheckFailed("a truth refused while drawing inputs was labelled in the op")
        ref = self.cfg
        fit1 = fit_cf_aj(first, ref.cf, ref.hyperfine.a_j, system)
        cf_fit, aj_fit = cf_parameters_from_result(fit1, ref.cf, ref.hyperfine.a_j)
        fit2 = fit_b(exact, cf_fit, aj_fit, system, initial_b=ref.hyperfine.b_quad)
        series = {}
        for ni, nf in FAMILIES:
            lines = [
                TransitionLine(r.n_init, r.n_final, r.m_z, r.value, r.sigma)
                for r in exact.rows
                if r.kind == "hf" and (r.n_init, r.n_final) == (ni, nf)
            ]
            ds = difference_series(lines)
            series[ds.which] = ds
        lam1 = extract_lambda1(series[2], series[3])
        lam2, lam3 = extract_lambda23(series[1], series[2], series[3])
        doublets = [fit_peaks(window, 2, ref.lineshape)[0] for window in windows]
        return fit1, fit2, (lam1, lam2, lam3), doublets

    def check(self, x, out) -> None:
        _, truth, _, _, _ = x
        fit1, fit2, lams, doublets = out
        for name, fit, target in (("a_j", fit1, truth.a_j), ("b_quad", fit2, truth.b_quad)):
            error = fit.param_errors[name]
            pull = abs(fit.params[name] - target) / error
            if not pull <= self.pull_limit:
                raise CheckFailed(f"fitted {name} {fit.params[name]:.6g} is {pull:.2f} sigma from truth {target:.6g}")
        if not all(np.isfinite(v) for lam in lams for v in lam):
            raise CheckFailed(f"non-finite lambda estimate {lams}")
        for k, peaks in enumerate(doublets):
            split = peaks[1].center - peaks[0].center
            if not abs(split - self.cfg.isotope.splitting) < self.splitting_tol:
                raise CheckFailed(f"doublet {k}: fitted splitting {split:.5f} cm-1")

    def check_refusal(self, x, exc) -> None:
        """Right where the truth, or the point ``fit_b`` starts from, cannot be labelled.

        ``fit_b`` starts at the CF and a_j that ``fit_cf_aj`` returned, which
        can lie past a crossing that the truth does not; hfspec documents
        that a fit fails when its starting point cannot be labelled.  A
        refusal from a later fit step is a failure.
        """
        cf, hf, first, exact, _ = x
        system = self.cfg.system
        if exact is None:
            check_labelling_refusal(cf, hf, system, exc, "the truth")
            return
        ref = self.cfg
        fit1 = fit_cf_aj(first, ref.cf, ref.hyperfine.a_j, system)
        cf_fit, aj_fit = cf_parameters_from_result(fit1, ref.cf, ref.hyperfine.a_j)
        start = HyperfineConstants(aj_fit, ref.hyperfine.b_quad)
        check_labelling_refusal(cf_fit, start, system, exc, "the start of fit_b")


class Cli:
    """Fresh ``python -m hfspec.cli`` processes, one command after another."""

    commands_run = ("levels", "hf", "fit_cf_aj", "fit_b", "analyze", "synth")
    #: the timed loop stops only after whole cycles of all six commands
    cycle = len(commands_run)
    #: cycles per run, each in a seeded order
    pool = 60

    def __init__(self) -> None:
        self.synth_path = HERE / "out" / "synth.csv"
        dataset = str(bundled_path(MEASURED_LINES))
        self.commands = {
            "levels": ["levels"],
            "hf": ["hf", "--transition", "8.1-8.2", "--compare"],
            "fit_cf_aj": ["fit", "--mode", "cf_aj", "--dataset", dataset],
            "fit_b": ["fit", "--mode", "b", "--dataset", dataset],
            "analyze": ["analyze"],
            "synth": ["synth", "--output", str(self.synth_path)],
        }
        self.expected = json.loads(CLI_EXPECTED.read_text()) if CLI_EXPECTED.exists() else {}

    def inputs(self, rng) -> list:
        """A warm-up command, then the seeded cycles one after another."""
        names = self.commands_run
        return ["levels"] + [names[k] for _ in range(self.pool) for k in rng.permutation(self.cycle)]

    def _output(self, name: str, stdout: bytes) -> bytes:
        if name != "synth":
            return stdout
        data = self.synth_path.read_bytes()
        self.synth_path.unlink()
        return data

    def op(self, name: str):
        """Run one command in a fresh interpreter; returns (exit code, output)."""
        proc = subprocess.run(
            [sys.executable, "-m", "hfspec.cli", *self.commands[name]],
            cwd=HERE.parent,
            capture_output=True,
            check=False,
        )
        if proc.returncode != 0:
            return proc.returncode, proc.stderr
        return 0, self._output(name, proc.stdout)

    def op_in_process(self, name: str):
        """The same command inside this interpreter, for traced runs."""
        from click.testing import CliRunner

        from hfspec import cli

        result = CliRunner().invoke(cli.main, self.commands[name])
        if result.exit_code != 0:
            return result.exit_code, result.output.encode()
        return 0, self._output(name, result.stdout_bytes)

    def check(self, name: str, out) -> None:
        code, data = out
        if code != 0:
            raise CheckFailed(f"{name}: exit {code}: {data.decode(errors='replace').strip()[-300:]}")
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.expected[name]:
            raise CheckFailed(f"{name}: output differs from the recording (sha256 {digest[:12]})")

    def check_refusal(self, name: str, exc) -> None:
        raise CheckFailed(f"{name}: {type(exc).__name__} escaped the command")


WORKLOADS = {"forward_scan": ForwardScan, "refine": Refine, "cli": Cli}
