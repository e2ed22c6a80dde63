"""Per-call time, term count and error of hyp2f1 at mpf arguments, before and after.

    python3 bench/hyp2f1_kernel.py --before OLD/src --after src \
        --digits 30 100 300 --repeats 5 > BENCH_hyp2f1.json

For each tree, each repeat runs one fresh interpreter that imports hyperpi
from that tree and, at every working precision and every point, makes one
warm-up call, then times --calls calls of `hyp2f1` on F = 2F1(1/2,1/2;1;z)
and F2 = 2F1(3/2,3/2;2;z).  The two trees alternate, and which one goes
first alternates with the repeat.  The median is over all timed calls.

The counts do not depend on the hardware: `terms` is the number of series
terms each tree's `_series` sums at that point (the last value it returns).  `error_eps` is
|hyp2f1 - mpmath.hyp2f1| in units of 10^-working, with the oracle at 30
more bits.
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
import json, sys, time
sys.path.insert(0, sys.argv[1])
import mpmath
from hyperpi.hypergeometric import F2_PARAMS, F_PARAMS, _series, hyp2f1
from hyperpi.numerics import ctx_new
calls = int(sys.argv[2])
out = {}
for digits in json.loads(sys.argv[3]):
    ctx = ctx_new(digits)
    for z_text in json.loads(sys.argv[4]):
        z = ctx.real(z_text)
        for name, p in (("F", F_PARAMS), ("F2", F2_PARAMS)):
            value = hyp2f1(p, z, ctx)
            times = []
            for _ in range(calls):
                start = time.perf_counter()
                hyp2f1(p, z, ctx)
                times.append(time.perf_counter() - start)
            with mpmath.workprec(ctx.mp.prec + 30):
                a, b, c = (mpmath.mpf(x.numerator) / x.denominator for x in (p.a, p.b, p.c))
                error = abs(mpmath.mpf(value) - mpmath.hyp2f1(a, b, c, mpmath.mpf(z)))
                error_eps = float(error * mpmath.mpf(10) ** ctx.working_digits)
            out[f"{digits} {z_text} {name}"] = {
                "times": times, "terms": _series(p, z, ctx)[-1], "error_eps": error_eps,
            }
print(json.dumps(out))
"""

POINTS = ("0.3", "0.5", "-0.45", "0.9")


def run_tree(src: str, calls: int, digits: list[int]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(calls), json.dumps(digits), json.dumps(POINTS)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--digits", type=int, nargs="+", default=[30, 100, 300])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--calls", type=int, default=3, help="timed calls per point and repeat")
    args = ap.parse_args()

    runs = {"before": [], "after": []}
    for r in range(args.repeats):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            runs[side].append(run_tree(getattr(args, side), args.calls, args.digits))
            print(f"repeat {r} {side} done", file=sys.stderr)

    points = {}
    for key in runs["after"][0]:
        entry = {}
        for side, side_runs in runs.items():
            times = [t for run in side_runs for t in run[key]["times"]]
            entry[side] = {
                "median_ms": round(1e3 * statistics.median(times), 3),
                "terms": side_runs[0][key]["terms"],
                "error_eps": float(f"{side_runs[0][key]['error_eps']:.3g}"),
            }
        entry["speedup"] = round(entry["before"]["median_ms"] / entry["after"]["median_ms"], 1)
        points[key] = entry
    report = {
        "what": "median wall time of one hyp2f1 call at an mpf argument, keyed 'digits z series', "
                "before and after the fixed-point summation of the mpf/mpc series",
        "command": "python3 bench/hyp2f1_kernel.py " + " ".join(sys.argv[1:]),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND},
        "repeats": args.repeats,
        "calls_per_repeat": args.calls,
        "points": points,
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
