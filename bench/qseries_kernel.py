"""Per-call time and term counts of the public q-series functions, before and after.

    python3 bench/qseries_kernel.py --before OLD/src --after src \
        --digits 300 --repeats 5 > BENCH_qseries.json

For each tree, each repeat runs one fresh interpreter that imports hyperpi
from that tree and, at every working precision, every tau and every function
(eta, E2, E4, E6 and lambda), makes one warm-up call, then times --calls
calls.  Each timed call builds its TauPoint (tau_point) and then calls the
function on it, so the reduction and the nome are timed whether a tree does
them in tau_point or in each function.  The points are
tau = Re + i Im for Im in {0.05, 1/4, 1} and Re in {0, 0.3}: below, at and
above the old Im(tau) >= 1/4 floor of eta and E_k, with a real nome (Re = 0)
and a complex one (Re = 0.3).  A call that raises ValueError is "refused".
For lambda the tree's `lambda_tau_reduced` is timed where it has one.  The
two trees alternate, and which one goes first alternates with the repeat.
The median is over all timed calls.

The counts do not depend on the hardware, and come from the warm-up call:
`lambert_n` is the last n of the Lambert sum sum_n n^(k-1) q^n / (1 - q^n)
(what `modular._lambert_count` returned), and `pentagonal_n` the last n of
the largest pentagonal sum P(y) = sum_n (-1)^n y^(n(3n-1)/2) + ... that
`modular._euler` summed, from its stopping rule; null where the function sums
no such series.
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
import json, math, sys, time
sys.path.insert(0, sys.argv[1])
from hyperpi import modular
from hyperpi.modular import tau_point
from hyperpi.numerics import ctx_new

FNS = {
    "eta": lambda t, ctx: modular.eta(t, ctx),
    "E2": lambda t, ctx: modular.eisenstein(2, t, ctx),
    "E4": lambda t, ctx: modular.eisenstein(4, t, ctx),
    "E6": lambda t, ctx: modular.eisenstein(6, t, ctx),
    "lambda": getattr(modular, "lambda_tau_reduced", modular.lambda_tau),
}
counts = {}
euler, lambert_count = modular._euler, modular._lambert_count


def counted_euler(y, ctx):
    ratio = float(ctx.mp.log(ctx.tail_tol) / ctx.mp.log(abs(y)))
    n = math.floor((1 + math.sqrt(1 + 24 * ratio)) / 6) + 1 if ratio >= 1 else 0
    counts["pentagonal_n"] = max(counts.get("pentagonal_n", 0), n)
    return euler(y, ctx)


def counted_lambert_count(log_r, ctx):
    counts["lambert_n"] = lambert_count(log_r, ctx)
    return counts["lambert_n"]


calls = int(sys.argv[2])
out = {}
for digits in json.loads(sys.argv[3]):
    ctx = ctx_new(digits)
    for tau_text in json.loads(sys.argv[4]):
        re, im = tau_text[:-1].split("+")
        tau = ctx.mp.mpc(ctx.mp.mpf(re), ctx.mp.mpf(im))
        for name, fn in FNS.items():
            counts.clear()
            modular._euler, modular._lambert_count = counted_euler, counted_lambert_count
            try:
                fn(tau_point(tau, ctx), ctx)
            except ValueError:
                out[f"{digits} {tau_text} {name}"] = "refused"
                continue
            finally:
                modular._euler, modular._lambert_count = euler, lambert_count
            times = []
            for _ in range(calls):
                start = time.perf_counter()
                fn(tau_point(tau, ctx), ctx)
                times.append(time.perf_counter() - start)
            out[f"{digits} {tau_text} {name}"] = {"times": times, "lambert_n": counts.get("lambert_n"),
                                                  "pentagonal_n": counts.get("pentagonal_n")}
print(json.dumps(out))
"""

POINTS = tuple(f"{re}+{im}i" for re in ("0", "0.3") for im in ("0.05", "0.25", "1"))


def run_tree(src: str, calls: int, digits: list[int]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(calls), json.dumps(digits), json.dumps(POINTS)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def summary(side_runs: list[dict], key: str):
    if side_runs[0][key] == "refused":
        return "refused"
    times = [t for run in side_runs for t in run[key]["times"]]
    first = side_runs[0][key]
    return {"median_ms": round(1e3 * statistics.median(times), 3),
            "lambert_n": first["lambert_n"], "pentagonal_n": first["pentagonal_n"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--digits", type=int, nargs="+", default=[300])
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
        entry = {side: summary(side_runs, key) for side, side_runs in runs.items()}
        timed = all(isinstance(entry[side], dict) for side in runs)
        entry["speedup"] = round(entry["before"]["median_ms"] / entry["after"]["median_ms"], 1) if timed else None
        cases[key] = entry
    report = {
        "what": "median wall time of tau_point and one public call on its point (eta, eisenstein(k), lambda), "
                "keyed 'digits tau fn', "
                "and the last n of its Lambert and pentagonal sums, before and after; 'refused' where the "
                "call raises ValueError",
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
