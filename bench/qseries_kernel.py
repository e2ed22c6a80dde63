"""Per-call time and term count of the Eisenstein series E2/E4/E6, before and after.

    python3 bench/qseries_kernel.py --before OLD/src --after src \
        --digits 100 300 1000 --repeats 5 > BENCH_qseries.json

For each tree, each repeat runs one fresh interpreter that imports hyperpi
from that tree and, at every working precision, every tau and every weight
k in {2, 4, 6}, makes one warm-up call, then times --calls calls of
`eisenstein(k, t, ctx)` on a TauPoint built outside the timed region.  The
points are tau = Re + i Im for Im in {1/4, 1, 2}, the edge of the direct
domain and two points inside it, with a real nome (Re = 0) and a complex
one (Re = 0.3).  The two trees alternate, and which one goes first
alternates with the repeat.  The median is over all timed calls.

The counts do not depend on the hardware: `terms` is the last n of the
Lambert sum sum_n n^(k-1) q^n / (1 - q^n).  A tree with
`modular._lambert_count` fixes it before the loop, one count for all three
weights; for an older tree it is the last n of its loop, which stopped at the
first n with n^(k-1) |q|^n < tail_tol (1 - |q|).
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
from hyperpi import modular
from hyperpi.modular import eisenstein, tau_point
from hyperpi.numerics import ctx_new


def terms(k, t, ctx):
    if hasattr(modular, "_lambert_count"):
        return modular._lambert_count(float(ctx.mp.log(abs(t.q))), ctx)
    aq = abs(t.q)
    tol = ctx.tail_tol * (1 - aq)
    n = 1
    while n ** (k - 1) * aq**n >= tol:
        n += 1
    return n


calls = int(sys.argv[2])
out = {}
for digits in json.loads(sys.argv[3]):
    ctx = ctx_new(digits)
    for tau_text in json.loads(sys.argv[4]):
        re, im = tau_text[:-1].split("+")
        t = tau_point(ctx.mp.mpc(ctx.mp.mpf(re), ctx.mp.mpf(im)), ctx)
        for k in (2, 4, 6):
            eisenstein(k, t, ctx)
            times = []
            for _ in range(calls):
                start = time.perf_counter()
                eisenstein(k, t, ctx)
                times.append(time.perf_counter() - start)
            out[f"{digits} {tau_text} E{k}"] = {"times": times, "terms": terms(k, t, ctx)}
print(json.dumps(out))
"""

POINTS = tuple(f"{re}+{im}i" for re in ("0", "0.3") for im in ("0.25", "1", "2"))


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
    ap.add_argument("--digits", type=int, nargs="+", default=[100, 300, 1000])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--calls", type=int, default=3, help="timed calls per case and repeat")
    args = ap.parse_args()

    runs = {"before": [], "after": []}
    for r in range(args.repeats):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            runs[side].append(run_tree(getattr(args, side), args.calls, args.digits))
            print(f"repeat {r} {side} done", file=sys.stderr)

    cases = {}
    for key in runs["after"][0]:
        entry = {}
        for side, side_runs in runs.items():
            times = [t for run in side_runs for t in run[key]["times"]]
            entry[side] = {
                "median_ms": round(1e3 * statistics.median(times), 3),
                "terms": side_runs[0][key]["terms"],
            }
        entry["speedup"] = round(entry["before"]["median_ms"] / entry["after"]["median_ms"], 1)
        cases[key] = entry
    report = {
        "what": "median wall time of one eisenstein(k, t, ctx) call, keyed 'digits tau Ek', "
                "and the last n of its Lambert sum, before and after",
        "command": "python3 bench/qseries_kernel.py " + " ".join(sys.argv[1:]),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND},
        "repeats": args.repeats,
        "calls_per_repeat": args.calls,
        "cases": cases,
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
