"""Start-up time and module counts of each hyperpi subcommand, before and after.

    python3 bench/startup.py --before OLD/src --after src --repeats 15 > BENCH_startup.json

Each sample is one fresh interpreter that imports `hyperpi.cli` from the
given source tree and runs one subcommand through `hyperpi.cli.main` at a
small digit count; it is timed from before the import to the call's return,
as perfbench times `setup_s`, so the time includes importing mpmath and, where
no bytecode cache exists, compiling hyperpi.  A sample counts only if the
call exits 0.  The two trees alternate, and which one goes first alternates
with the repeat.

The counts do not depend on the hardware: the hyperpi modules the
subcommand loaded, and the number of modules of any package that the import
and the call added to `sys.modules`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
start = time.perf_counter()
from hyperpi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
elapsed = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": elapsed,
                  "hyperpi_modules": sorted(m for m in sys.modules if m.split(".")[0] == "hyperpi"),
                  "modules_added": len(set(sys.modules) - before)}))
"""

SUBCOMMANDS = {
    "pi": ["pi", "--digits", "50"],
    "verify": ["verify", "--digits", "20"],
    "eval e4": ["eval", "--fn", "e4", "--tau", "0.1+1i", "--digits", "20"],
    "eval F": ["eval", "--fn", "F", "--lambda", "0.5", "--digits", "20"],
    "cm-report": ["cm-report", "--abc", "1,0,4", "--digits", "20"],
    "selftest": ["selftest", "--digits", "10"],
}


def sample(src: str, argv: list[str]) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, src, *argv],
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out)
    if result["code"] != 0:
        raise SystemExit(f"{src}: {' '.join(argv)} exited {result['code']}")
    return result


def summary(samples: list[float]) -> dict:
    return {"median": round(statistics.median(samples), 4), "samples": [round(s, 4) for s in samples]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()

    seconds = {(name, side): [] for name in SUBCOMMANDS for side in ("before", "after")}
    counts = {}
    for r in range(args.repeats):
        sides = ("before", "after") if r % 2 == 0 else ("after", "before")
        for name, argv in SUBCOMMANDS.items():
            for side in sides:
                result = sample(getattr(args, side), argv)
                seconds[name, side].append(result["seconds"])
                counts.setdefault(name, {})[side] = {key: result[key] for key in ("hyperpi_modules", "modules_added")}
                print(f"repeat {r} {name} {side}: {result['seconds']:.4f} s", file=sys.stderr)

    wall = {}
    for name, argv in SUBCOMMANDS.items():
        before, after = summary(seconds[name, "before"]), summary(seconds[name, "after"])
        wall[name] = {"argv": argv, "before": before, "after": after,
                      "speedup": round(before["median"] / after["median"], 2)}
    report = {
        "what": "median seconds from a fresh interpreter's `from hyperpi.cli import main` to the return "
                "of its first call, with hyperpi imported from the --before and the --after tree",
        "command": "python3 bench/startup.py " + " ".join(sys.argv[1:]),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "bytecode_written": not sys.dont_write_bytecode},
        "repeats": args.repeats,
        "wall_s": wall,
        "counts": counts,
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
