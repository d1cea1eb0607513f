"""Record the expected output of each command the cli workload runs.

    python3 perfbench/record_cli.py

Run from the root of a source checkout at the commit whose CLI output is the
reference.  Writes the SHA-256 of each command's output (stdout, or the
written file for ``synth``) to ``perfbench/cli_expected.json``; the cli
workload compares every op against it.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CLI_EXPECTED, Cli

    (BENCH / "out").mkdir(exist_ok=True)
    cli = Cli()
    digests = {}
    for name in cli.commands_run:
        code, data = cli.op(name)
        if code != 0:
            print(f"error: {name} exited {code}: {data.decode(errors='replace')}", file=sys.stderr)
            return 1
        digests[name] = hashlib.sha256(data).hexdigest()
        print(f"{name}: {len(data)} bytes, sha256 {digests[name]}")
    CLI_EXPECTED.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
