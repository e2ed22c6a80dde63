"""Test of the benchmark itself: the hardware-independent counts of a traced
run (calls per function, 2F1 calls per route, reduce_tau word letters,
pi_reference contexts computed) repeat exactly for two runs with one seed,
also when the second run measures longer and so completes more operations.

    python3 perfbench/check_counts.py [--seed N] [workload ...]

Exits 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int, seconds: int) -> dict:
    # even with --seconds 0 a traced run covers the operations its counts use
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong outputs")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = counts(workload, args.seed, 0), counts(workload, args.seed, 10)
        differing = sorted(name for name in first if first[name] != second.get(name))
        ok = ok and not differing and first.keys() == second.keys()
        status = "repeat" if not differing else f"DIFFER: {', '.join(differing)}"
        print(f"{workload}: {len(first)} counts {status}; "
              f"hyp2f1 calls {first['hypergeometric.hyp2f1.calls']}, eta calls {first['modular.eta.calls']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
