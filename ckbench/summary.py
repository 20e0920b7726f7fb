"""Run every workload once and print its end-to-end metrics with units.

Run from the repository root:

    python3 ckbench/summary.py --seed 1 --seconds 20
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("atlas", "deep-bound", "groebner", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent,
        )
        if run.returncode != 0:
            print(f"{workload}: exit code {run.returncode}\n{run.stderr}")
            status = 1
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        print(f"{workload} ({result['attempted']} items)")
        for name, metric in result["metrics"].items():
            print(f"  {name:<14} {metric['value']:12.6g} {metric['unit']}")
        print(f"  {'failed_share':<14} {share:12.6g} ratio")
        status |= share != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
