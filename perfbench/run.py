"""hfspec benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload forward_scan|refine|cli|all \
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it measures the per-layer metrics from spans
(see ``tracing.py``).  The report goes to standard output, and its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn.  See README.md
for what each workload and metric is for.

One closed-loop caller in one process.  OPENBLAS_NUM_THREADS=1 is set before
numpy is imported; the child processes inherit it.
"""

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("forward_scan", "refine", "cli")
#: fresh interpreters timed for setup_s, before and after the timed loop
SETUP_REPEATS = 3
#: ops a tail sample leaves beyond it: at least 10, and at least 5 % of them.
#: On a shared host, about one op a second runs a few ms slow and short
#: bursts slow a dozen ops two- to threefold; with only 10 beyond, a
#: forward_scan tail (about p99 of 800 ops) measures those, not the program.
TAIL_BEYOND, TAIL_SHARE = 10, 0.05
#: seconds of the default-BLAS-threads probe in a traced run
BLAS_PROBE_SECONDS = 4.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_CODE = (
    "import hfspec\n"
    "from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, bundled_path, load_config\n"
    "from hfspec.datasets import read_dataset\n"
    "load_config(bundled_path(REFERENCE_CONFIG))\n"
    "read_dataset(bundled_path(MEASURED_LINES))\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hfspec" / "__init__.py").is_file():
        print(f"error: no hfspec sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if not args.blas_probe:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import hfspec

    if not Path(hfspec.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hfspec from {hfspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.blas_probe:
        print(json.dumps(blas_probe(args)))
        return 0
    result = run_traced(args) if args.trace else run_end_to_end(args)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


# -- environment --------------------------------------------------------------
def openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes
    import re

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", handle.read())))
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="utf-8") as handle:
        return [float(v) for v in handle.read().split()[:3]]


def calibration_ms() -> float:
    """Median time of a fixed 136-dim Hermitian eigensolve: machine speed right now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((136, 136)) + 1j * rng.standard_normal((136, 136))
    a = a + a.conj().T
    times = []
    for _ in range(30):
        t0 = perf_counter()
        np.linalg.eigh(a)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": openblas_threads(),
        "cpu_count": os.cpu_count(),
    }


# -- measuring ----------------------------------------------------------------
def fresh_interpreter_s(code: str, extra: tuple = ()) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    return perf_counter() - t0, proc.stderr


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile that leaves ``TAIL_BEYOND`` samples, and ``TAIL_SHARE``, beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    maximum is returned, with the count of samples beyond it (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, math.ceil(TAIL_SHARE * n))
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Outcomes:
    """Every attempted op: its outcome, counted, with the cause of each failure.

    A refusal is one of the documented errors by which hfspec declines an
    input it cannot handle.  One that the workload's ``check_refusal``
    accepts is the right answer for that input: the op is complete, not
    failed, and the refusal is listed with its cause.  Any other refusal
    fails the op but is not a wrong answer.
    """

    def __init__(self) -> None:
        from hfspec import ConvergenceError, LabelingError, SymmetryError

        self.refusals = (LabelingError, SymmetryError, ConvergenceError)
        self.attempted = 0
        self.failures: list[dict] = []
        self.refused: list[dict] = []
        self.correct = True

    def run(self, workload, op, x, index: int, traced=contextlib.nullcontext) -> tuple[bool, float]:
        """Run and check one op; ``traced()`` is entered around the op alone, outside its time.

        Returns (whether the op returned an answer that passed its check, its
        seconds).  A checked refusal is neither: it is complete and correct,
        but it stops early, so its time is kept out of the latencies.
        """
        from workloads import CheckFailed

        self.attempted += 1
        error = None
        with traced():
            t0 = perf_counter()
            try:
                out = op(x)
            except Exception as exc:  # noqa: BLE001 - every crash is counted and reported
                # without its traceback, which would tie this frame and the
                # op's arrays into a cycle that only the collector frees
                error = exc.with_traceback(None)
            elapsed = perf_counter() - t0
        if isinstance(error, self.refusals):
            try:
                workload.check_refusal(x, error)
            except CheckFailed as why:
                self._fail(index, "refused", error, why)
                return False, elapsed
            self.refused.append({"input": index, "cause": f"{type(error).__name__}: {error}"})
            return False, elapsed
        if error is not None:
            self._fail(index, "error", error)
            self.correct = False
            return False, elapsed
        try:
            workload.check(x, out)
        except CheckFailed as exc:
            self._fail(index, "check", exc)
            self.correct = False
            return False, elapsed
        return True, elapsed

    def _fail(self, index: int, kind: str, exc: BaseException, why: BaseException | None = None) -> None:
        cause = f"{type(exc).__name__}: {exc}" + (f" ({why})" if why else "")
        self.failures.append({"input": index, "kind": kind, "cause": cause})


def make_workload(name: str, seed: int):
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[name]()
    return workload, workload.inputs(np.random.default_rng(seed))


def timed_loop(workload, op, inputs, seconds: float, outcomes: Outcomes, step=None):
    """Closed loop over ``inputs`` after one warm-up op, stopping on a cycle boundary.

    Returns (latencies of answered ops in s, wall seconds, ops timed).
    ``step(index)`` replaces the plain call when given (traced runs).
    """
    stride = getattr(workload, "cycle", 1)
    outcomes.run(workload, op, inputs[0], 0)
    latencies = []
    k = 0
    start = perf_counter()
    while k % stride or perf_counter() - start < seconds:
        index = 1 + k % (len(inputs) - 1)
        if step is None:
            ok, elapsed = outcomes.run(workload, op, inputs[index], index)
            if ok:
                latencies.append(elapsed)
        else:
            step(index)
        k += 1
    return latencies, perf_counter() - start, k


def run_end_to_end(args) -> dict:
    import resource

    env = environment()
    load_before = loadavg()
    calib_start = calibration_ms()
    setup = [fresh_interpreter_s(SETUP_CODE)[0] for _ in range(SETUP_REPEATS)]
    workload, inputs = make_workload(args.workload, args.seed)
    outcomes = Outcomes()
    latencies, wall, _ = timed_loop(workload, workload.op, inputs, args.seconds, outcomes)
    setup += [fresh_interpreter_s(SETUP_CODE)[0] for _ in range(SETUP_REPEATS)]
    calib_end = calibration_ms()
    load_after = loadavg()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ms = [1e3 * t for t in latencies]
    tail_ms, tail_pct, beyond = tail(ms) if ms else (0.0, 0.0, 0)
    metrics = {
        "ops_per_s": (len(ms) / wall, "1/s"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        # reported, not gated: ops alternate between the host's fast and
        # slow states, and the median jumps between the two (README)
        "op_p50_ms": f"{statistics.median(ms) if ms else 0.0:.4f} ms, median of {len(ms)} answered ops",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(ms)} answered ops, {beyond} beyond it",
        "failed_ratio": f"{len(outcomes.failures)}/{outcomes.attempted} = "
        f"{len(outcomes.failures) / outcomes.attempted:.4f}",
        "refused": f"{len(outcomes.refused)}/{outcomes.attempted} ops are checked refusals",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup),
        "calibration_ms": f"start {calib_start:.3f}, end {calib_end:.3f}",
        "loadavg": f"before {load_before}, after {load_after}",
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
              "environment": env, "calibration_ms": [calib_start, calib_end],
              "loadavg": [load_before, load_after], "notes": notes, "failures": outcomes.failures,
              "refused": outcomes.refused}
    return report(args, metrics, outcomes, record)


def report(args, metrics: dict, outcomes: Outcomes, record: dict) -> dict:
    """Print the readable report, write the full record, return the result line."""
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(correct=outcomes.correct, attempted=outcomes.attempted, failed=len(outcomes.failures))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    for name, note in record["notes"].items():
        print(f"  note {name}: {note}")
    for name, why in record.get("absent", {}).items():
        print(f"  absent {name}: {why}")
    for refusal in outcomes.refused:
        print(f"  refused input {refusal['input']} (checked, completed): {refusal['cause']}")
    for failure in outcomes.failures:
        print(f"  failed input {failure['input']} ({failure['kind']}): {failure['cause']}")
    path = OUT / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": record["metrics"],
    }


# -- traced run ---------------------------------------------------------------
def import_times() -> dict:
    """Interpreter start and ``import hfspec.cli`` cost, from ``python -X importtime``."""
    bare = statistics.median(fresh_interpreter_s("pass")[0] for _ in range(5))
    totals, selfs = [], {p: [] for p in ("scipy", "numpy", "click", "hfspec")}
    for _ in range(3):
        _, stderr = fresh_interpreter_s("import hfspec.cli", ("-X", "importtime"))
        own = dict.fromkeys(selfs, 0.0)
        total = 0.0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            if package in own:
                own[package] += float(self_us) / 1e3
            if name == " hfspec.cli":  # top level: nested imports are indented further
                total = float(cumulative_us) / 1e3
        totals.append(total)
        for package, value in own.items():
            selfs[package].append(value)
    out = {"cli.interpreter_ms": 1e3 * bare, "cli.import_ms": statistics.median(totals)}
    out.update({f"cli.import_self_ms.{p}": statistics.median(v) for p, v in selfs.items()})
    return out


def io_times(repeats: int = 7) -> dict:
    """Load and write of the bundled config, dataset and a reference spectrum."""
    import numpy as np

    from hfspec import Spectrum
    from hfspec.config import MEASURED_LINES, REFERENCE_CONFIG, bundled_path, load_config
    from hfspec.datasets import read_dataset, write_dataset, write_spectrum

    cfg = load_config(bundled_path(REFERENCE_CONFIG))
    start, stop, step = cfg.grid
    grid = np.arange(start, stop + 0.5 * step, step)
    spectrum = Spectrum(grid, np.exp(-((grid - grid.mean()) ** 2)))
    data = read_dataset(bundled_path(MEASURED_LINES))
    load, write = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        load_config(bundled_path(REFERENCE_CONFIG))
        read_dataset(bundled_path(MEASURED_LINES))
        t1 = perf_counter()
        write_dataset(OUT / "io-dataset.csv", data)
        write_spectrum(OUT / "io-spectrum.csv", spectrum)
        t2 = perf_counter()
        load.append(t1 - t0)
        write.append(t2 - t1)
    return {"io.load_ms": 1e3 * statistics.median(load), "io.write_ms": 1e3 * statistics.median(write)}


def traced_loop(args, seconds: float):
    """Each input run untraced and traced back to back, alternating which goes first.

    Returns (tracer, outcomes, traced op count, untraced s, traced s, ms per CLI command).
    """
    import workloads
    from tracing import Tracer

    workload, inputs = make_workload(args.workload, args.seed)
    op = workload.op_in_process if args.workload == "cli" else workload.op
    outcomes = Outcomes()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    command_ms: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def tracing():
        tracer.install(callers=(workloads,))
        span = tracer.open("op", "workload")
        try:
            yield
        finally:
            tracer.close(span)
            tracer.uninstall()

    def traced(index):
        _, elapsed = outcomes.run(workload, op, inputs[index], index, tracing)
        if args.workload == "cli":
            command_ms.setdefault(inputs[index], []).append(1e3 * elapsed)
        return elapsed

    def step(index):
        nonlocal plain_s, traced_s
        if index % 2:
            traced_s += traced(index)
            plain_s += outcomes.run(workload, op, inputs[index], index)[1]
        else:
            plain_s += outcomes.run(workload, op, inputs[index], index)[1]
            traced_s += traced(index)

    _, _, n_ops = timed_loop(workload, op, inputs, seconds, outcomes, step)
    return tracer, outcomes, n_ops, plain_s, traced_s, command_ms


def blas_probe(args) -> dict:
    """Assembly and eigh time per op under this process's BLAS thread setting."""
    from hfspec import HO_LIYF4

    tracer, _, n_ops, _, _, _ = traced_loop(args, args.seconds)
    metrics, _ = tracer.layer_metrics(n_ops, (HO_LIYF4.dim_j, HO_LIYF4.dim))
    return {
        "assemble_ms_per_op": metrics["hamiltonian.assemble_ms_per_op"],
        "eigh_ms_per_op": metrics["hamiltonian.eigh_ms_per_op"],
        "ops": n_ops,
        "blas_threads": openblas_threads(),
    }


def run_traced(args) -> dict:
    from hfspec import HO_LIYF4
    from workloads import Cli

    env = environment()
    load_before = loadavg()
    calib_start = calibration_ms()
    layer = import_times()
    layer.update(io_times())
    tracer, outcomes, n_ops, plain_s, traced_s, command_ms = traced_loop(args, args.seconds)
    spans, absent = tracer.layer_metrics(n_ops, (HO_LIYF4.dim_j, HO_LIYF4.dim))
    layer.update(spans)
    layer["trace.overhead_ratio"] = plain_s / traced_s

    probe_env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(BLAS_PROBE_SECONDS), "--blas-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=probe_env, capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    layer["hamiltonian.assemble_ms_per_op.blas_default"] = probe["assemble_ms_per_op"]
    layer["hamiltonian.eigh_ms_per_op.blas_default"] = probe["eigh_ms_per_op"]

    for name in Cli.commands_run:
        key = f"cli.command_ms.{name}"
        layer[key] = statistics.median(command_ms[name]) if name in command_ms else 0.0
        if name not in command_ms:
            absent[key] = "CLI commands run only in the cli workload"
    calib_end = calibration_ms()
    tracer.write(OUT / f"spans-{args.workload}.jsonl")

    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    notes = {
        "traced_ops": f"{n_ops} ops, each also run untraced: {plain_s:.3f} s untraced, {traced_s:.3f} s traced",
        "blas_default": f"{probe['ops']} ops in {BLAS_PROBE_SECONDS} s with threads {probe['blas_threads']}",
        "calibration_ms": f"start {calib_start:.3f}, end {calib_end:.3f}",
        "loadavg": f"before {load_before}, after {loadavg()}",
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 1,
              "environment": env, "calibration_ms": [calib_start, calib_end], "notes": notes,
              "absent": absent, "failures": outcomes.failures, "refused": outcomes.refused}
    return report(args, metrics, outcomes, record)


if __name__ == "__main__":
    sys.exit(main())
