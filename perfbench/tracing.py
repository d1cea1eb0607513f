"""In-memory spans around the calls into each hfspec layer.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper wherever an hfspec module binds it (``hf_levels_exact`` is bound in
``hamiltonian``, ``fitting``, ``perturbation``, ``cli`` and the package), and
also wraps ``numpy.linalg.eigh`` and ``hamiltonian.linear_sum_assignment``.
``uninstall`` restores the originals.  A span is (name, layer, start, end,
parent index); a layer's self time is its spans' durations minus the time
their child spans cover.  Spans stay in memory until ``write``.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

#: layer name -> modules whose public functions belong to it
LAYERS = {
    "angular": ("hfspec.angular",),
    "hamiltonian": ("hfspec.hamiltonian",),
    "perturbation": ("hfspec.perturbation",),
    "spectra": ("hfspec.spectra",),
    "analysis": ("hfspec.analysis",),
    "fitting": ("hfspec.fitting",),
    "io": ("hfspec.config", "hfspec.datasets"),
}
OPERATOR_BUILDS = ("build_jz", "build_jplus", "build_jminus", "build_stevens")
DELTAS = ("delta_full", "delta_doublet", "delta_singlet")
ASSEMBLY = ("build_cf_hamiltonian", "build_hf_hamiltonian")
FIT_KINDS = {"fit_cf_aj": "cf_aj", "fit_b": "b", "fit_peaks": "peaks", "fit_refractive": "refractive"}

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: span index -> rows of the matrix handed to eigh
        self.eigh_rows: dict[int, int] = {}
        #: span index -> peaks x grid points of one synthesize call
        self.profile_points: dict[int, int] = {}
        #: one record per damped_least_squares call
        self.fits: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][END] = perf_counter()

    def wrap(self, fn, layer: str, name: str | None = None):
        name = name or fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_eigh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            idx = tracer.open("eigh", "hamiltonian")
            tracer.eigh_rows[idx] = int(np.shape(a)[-1])
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_synthesize(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(lines, shape, grid, isotope=None):
            idx = tracer.open("synthesize", "spectra")
            per_line = 2 if isotope is not None and isotope.enabled else 1
            tracer.profile_points[idx] = len(lines) * per_line * int(np.size(grid))
            try:
                return fn(lines, shape, grid, isotope)
            finally:
                tracer.close(idx)

        return traced

    def _enclosing_fit(self) -> str:
        for idx in reversed(self.stack):
            kind = FIT_KINDS.get(self.spans[idx][NAME])
            if kind:
                return kind
        return "other"

    def _wrap_lsq(self, fn):
        """damped_least_squares: count model evaluations, iterations, accepted steps."""
        tracer = self

        @functools.wraps(fn)
        def traced(fun, x0, *args, **kwargs):
            record = {"kind": tracer._enclosing_fit(), "evals": 0, "jac_evals": 0, "iterations": 0, "accepted": 0}
            tracer.fits.append(record)
            layer = _layer_of(fun.__module__)

            def counted(x):
                record["evals"] += 1
                if tracer.spans[tracer.stack[-1]][NAME] == "numerical_jacobian":
                    record["jac_evals"] += 1
                idx = tracer.open("model_eval", layer)
                try:
                    return fun(x)
                finally:
                    tracer.close(idx)

            idx = tracer.open("damped_least_squares", "fitting")
            try:
                solution = fn(counted, x0, *args, **kwargs)
            finally:
                tracer.close(idx)
            record["iterations"] = solution.n_iter
            record["accepted"] = len(solution.chi2_history) - 1
            return solution

        return traced

    # -- installing ------------------------------------------------------
    def install(self, callers=()) -> None:
        """Wrap every layer function wherever an hfspec module, or one of ``callers``, binds it."""
        special = {"damped_least_squares": self._wrap_lsq, "synthesize": self._wrap_synthesize}
        replacement = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                for name, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj.__module__ == modname and not name.startswith("_"):
                        make = special.get(name)
                        replacement[id(obj)] = make(obj) if make else self.wrap(obj, layer)
        hamiltonian = importlib.import_module("hfspec.hamiltonian")
        lsa = hamiltonian.linear_sum_assignment
        replacement[id(lsa)] = self.wrap(lsa, "hamiltonian", "linear_sum_assignment")

        bound = [m for n, m in sys.modules.items() if n == "hfspec" or n.startswith("hfspec.")]
        for module in bound + list(callers):
            for name, obj in list(vars(module).items()):
                if id(obj) in replacement and callable(obj):
                    self._patch(module, name, replacement[id(obj)])
        self._patch(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh))

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- metrics ---------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self, n_ops: int, system_dims: tuple[int, int]) -> tuple[dict, dict]:
        """Per-layer metrics from the recorded spans; second dict explains absent ones."""
        spans = self.spans
        own = self.self_times()
        dim_j, dim = system_dims
        ops = max(n_ops, 1)

        def count(names) -> int:
            return sum(1 for s in spans if s[NAME] in names)

        def total(names) -> float:
            return sum(s[END] - s[START] for s in spans if s[NAME] in names)

        def self_ms(layer: str) -> float:
            return 1e3 * sum(t for s, t in zip(spans, own) if s[LAYER] == layer)

        eigh = list(self.eigh_rows.values())
        synth_time = total(("synthesize",))
        fits = self.fits
        evals = sum(f["evals"] for f in fits)
        trials = sum(f["evals"] - f["jac_evals"] - 1 for f in fits)
        m = {
            "angular.operator_builds_per_op": count(OPERATOR_BUILDS) / ops,
            "angular.self_ms_per_op": self_ms("angular") / ops,
            "hamiltonian.cf_solves_per_op": sum(1 for r in eigh if r == dim_j) / ops,
            "hamiltonian.hf_solves_per_op": sum(1 for r in eigh if r == dim) / ops,
            "hamiltonian.assemble_ms_per_op": 1e3 * total(ASSEMBLY) / ops,
            "hamiltonian.eigh_calls_per_op": len(eigh) / ops,
            "hamiltonian.eigh_rows_per_op": sum(eigh) / ops,
            "hamiltonian.eigh_ms_per_op": 1e3 * total(("eigh",)) / ops,
            "hamiltonian.classify_ms_per_op": 1e3 * total(("classify_levels",)) / ops,
            "hamiltonian.label_ms_per_op": 1e3 * sum(t for s, t in zip(spans, own) if s[NAME] == "hf_levels_exact") / ops,
            "hamiltonian.assign_ms_per_op": 1e3 * total(("linear_sum_assignment",)) / ops,
            "perturbation.delta_calls_per_op": count(DELTAS) / ops,
            "perturbation.self_ms_per_op": self_ms("perturbation") / ops,
            "spectra.self_ms_per_op": self_ms("spectra") / ops,
            "spectra.profile_points_per_s": sum(self.profile_points.values()) / synth_time if synth_time else 0.0,
            "analysis.self_ms_per_op": self_ms("analysis") / ops,
            "analysis.peak_fits_per_op": count(("fit_peaks",)) / ops,
            "fitting.jacobian_evals_share": sum(f["jac_evals"] for f in fits) / evals if evals else 0.0,
            "fitting.iterations_per_fit": statistics.fmean(f["iterations"] for f in fits) if fits else 0.0,
            "fitting.step_accept_ratio": sum(f["accepted"] for f in fits) / trials if trials else 0.0,
            "fitting.self_ms_per_fit": self_ms("fitting") / len(fits) if fits else 0.0,
        }
        absent = {}
        for kind in ("cf_aj", "b", "peaks"):
            of_kind = [f["evals"] for f in fits if f["kind"] == kind]
            m[f"fitting.model_evals_per_fit.{kind}"] = statistics.fmean(of_kind) if of_kind else 0.0
            if not of_kind:
                absent[f"fitting.model_evals_per_fit.{kind}"] = f"no {kind} fits in this workload"
        if not synth_time:
            absent["spectra.profile_points_per_s"] = "no synthesize calls in this workload"
        if not fits:
            for key in ("jacobian_evals_share", "iterations_per_fit", "step_accept_ratio", "self_ms_per_fit"):
                absent[f"fitting.{key}"] = "no fits in this workload"
        return m, absent


def _layer_of(modname: str) -> str:
    for layer, modules in LAYERS.items():
        if modname in modules:
            return layer
    return "other"
