"""Wall time and series counts of the two identity pi engines, before and after.

    python3 bench/pi_engine.py --before OLD/src --after src \
        --digits 1000 2000 10000 --repeats 5 > BENCH_pi_engine.json

Each sample is one `hyperpi pi --method identity1|identity2 --digits N` call
through `hyperpi.cli.main`, timed in a fresh interpreter that imports hyperpi
from the given source tree and first makes a 50-digit warm-up call (mpmath
fills its caches on first use).  A sample counts only if the call exits 0,
that is, if its digits equal `pi_reference_digits`.  The two trees alternate,
and which one goes first alternates with the repeat.

The counts do not depend on the hardware and come from the --after tree.
Both engines sum one series, F(1/2) = 2F1(1/2,1/2;1;1/2) with its weighted
sum (identity 2 through the Pfaff image 1/2 of z = -1); for each digit count
the report gives its terms and the fractional bits of its fixed-point
integers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import mpmath.libmp

CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from hyperpi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["pi", "--method", sys.argv[2], "--digits", "50"])
    start = time.perf_counter()
    code = main(["pi", "--method", sys.argv[2], "--digits", sys.argv[3]])
    elapsed = time.perf_counter() - start
print(code, elapsed)
"""

METHODS = ("identity1", "identity2")


def sample(src: str, method: str, digits: int) -> float:
    out = subprocess.run([sys.executable, "-c", CHILD, src, method, str(digits)],
                         check=True, capture_output=True, text=True).stdout.split()
    if out[0] != "0":
        raise SystemExit(f"{src}: pi --method {method} --digits {digits} exited {out[0]}")
    return float(out[1])


def summary(samples: list[float]) -> dict:
    return {"median": round(statistics.median(samples), 4), "samples": [round(s, 4) for s in samples]}


def series_counts(src: str, digits_list: list[int]) -> dict:
    sys.path.insert(0, src)
    import math

    from hyperpi.hypergeometric import F_PARAMS, _plan
    from hyperpi.numerics import ctx_new

    counts = {}
    for digits in digits_list:
        # _plan takes log|z|, here of z = 1/2
        terms, bits = _plan(F_PARAMS, -math.log(2), ctx_new(digits))
        counts[str(digits)] = {"terms": terms, "fixed_point_bits": bits}
    return counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--digits", type=int, nargs="+", default=[1000, 2000, 10000])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    samples = {(m, d, side): [] for m in METHODS for d in args.digits for side in ("before", "after")}
    for r in range(args.repeats):
        sides = ("before", "after") if r % 2 == 0 else ("after", "before")
        for digits in args.digits:
            for method in METHODS:
                for side in sides:
                    src = getattr(args, side)
                    samples[method, digits, side].append(sample(src, method, digits))
                    print(f"repeat {r} {method} {digits} {side}: {samples[method, digits, side][-1]:.3f} s",
                          file=sys.stderr)

    wall = {}
    for method in METHODS:
        wall[method] = {}
        for digits in args.digits:
            before = summary(samples[method, digits, "before"])
            after = summary(samples[method, digits, "after"])
            wall[method][str(digits)] = {"before": before, "after": after,
                                         "speedup": round(before["median"] / after["median"], 1)}
    report = {
        "what": "median wall time of one `hyperpi pi --method M --digits N` call after a warm-up, "
                "with hyperpi imported from the --before and the --after tree",
        "command": "python3 bench/pi_engine.py " + " ".join(sys.argv[1:]),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND},
        "repeats": args.repeats,
        "wall_s": wall,
        "counts": series_counts(args.after, args.digits),
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
