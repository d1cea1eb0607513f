"""Short self-check of the benchmark harness.

    python3 perfbench/selfcheck.py [--seconds 2]

Runs every workload briefly, untraced and traced, and checks that the last
line of each run is the result object, that its metrics are exactly the ones
BENCHMARK.json lists for that mode, each with its listed unit and a finite
value, and that every op was correct.  Then copies BENCHMARK.json and the
benchmark's files, without the program, into a scratch directory and checks
that a run there fails without printing a result.  Exits 1 on any problem.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def problems_in(result: dict, expected: dict[str, str]) -> list[str]:
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    out = []
    if result["correct"] is not True:
        out.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        out.append(f"attempted = {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        out.append(f"failed = {result['failed']!r}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(expected) | set(got)):
        if got.get(name) != expected.get(name):
            out.append(f"metric {name}: unit {got.get(name)!r}, expected {expected.get(name)!r}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            out.append(f"metric {name}: value {value!r}")
    return out


def run(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-check of the hfspec benchmark.")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in modes.items():
            proc = run(ROOT, workload, args.seconds, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                found = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                found = problems_in(json.loads(lines[-1]), {m["name"]: m["unit"] for m in metrics})
            for problem in found:
                print(f"FAIL {workload} trace {trace}: {problem}")
            failures += bool(found)
            if not found:
                print(f"ok   {workload} trace {trace}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], args.seconds, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        print(f"FAIL without the program: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")
        failures += 1
    else:
        print(f"ok   without the program: exit {proc.returncode}, no result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
