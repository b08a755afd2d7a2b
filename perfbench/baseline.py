"""Run every workload untraced and traced, and collect them.

    python3 perfbench/baseline.py --seed 42 --out perfbench/baseline.json

Each (workload, trace) pair runs ``run.py`` in its own process, one after
the other, for the ``run_seconds`` of ``BENCHMARK.json``; the workloads it
does not declare are recorded too. The metric lines are echoed; with ``--out``
the records and results are written to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

run.import_package()
from workloads import WORKLOADS  # noqa: E402

ROOT = run.ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(declared["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            records = [line for line in lines if line.startswith("record: ")]
            if proc.returncode != 0 or not records:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result",
                      file=sys.stderr)
                return 1
            print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
            runs.append({"record": json.loads(records[0][len("record: "):]),
                         "result": json.loads(lines[-1])})
    ok = all(run["result"]["correct"] for run in runs)
    if args.out is not None:
        machine = runs[0]["record"]["machine"]
        for run in runs:
            del run["record"]["machine"]
        args.out.write_text(json.dumps(
            {"seed": args.seed, "run_seconds": declared["run_seconds"],
             "machine": machine, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
