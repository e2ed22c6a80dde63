"""Wall time and hardware-independent counts of one benchmark case, before and after.

    python3 bench/compare.py CASE --before OLD/src --after src [--repeats N] > BENCH_CASE.json

CASE is one of:

  pi       one `hyperpi pi --method identity1|identity2 --digits N` call for N
           in 1000, 2000, 10000 and 30000, timed after a 50-digit warm-up call
           (mpmath fills its caches on first use); counts: the terms and
           fractional bits of the one series both engines sum, F(1/2) with its
           weighted sum (`_plan`).
  hyp2f1   one `hyp2f1` call on F = 2F1(1/2,1/2;1;z) and F2 = 2F1(3/2,3/2;2;z)
           at mpf z in 0.3, 0.5, -0.45, 0.9, -0.9, at mpc z in 0.3+0.4i,
           -0.2+0.1i, -0.8+0.3i (-0.9 and -0.8+0.3i take the Pfaff route,
           the rest the direct series) and at 30, 100, 300 and 1000 digits,
           3 timed calls after a warm-up; counts, from the warm-up: terms, the
           terms `_sums` sums (the largest n `_plan` returns), read_bits, the
           bits `_sums` reads its argument to (the largest bits argument of
           `fixed_point`, which `_power` calls at fewer), and error_eps =
           |hyp2f1 - mpmath.hyp2f1| in units of 10^-working, with the oracle
           at 30 more bits.
  qseries  `tau_point` plus one call of eta, E2, E4, E6 or lambda on its point,
           at tau = Re + i Im for Re in 0, 0.3, 0.5 and Im in 0.05, 1/4, 1, at
           300 digits (the Re = 0.5 points reduce to Re(tau0) = -1/2), 9 timed
           calls after a warm-up; counts, from the warm-up: lambert_n, the
           last n of the Eisenstein sum (`_lambert_count`), pentagonal_n, the
           largest last n of a pentagonal sum P(y) (`_pentagonal_count`), and
           pentagonal_passes, the number of pentagonal passes (calls of
           `_pentagonal_count`); null where the function sums no such series.
  startup  one subcommand (pi, verify, eval e4, eval F, cm-report, selftest)
           at a small digit count, timed from a fresh interpreter's
           `from hyperpi.cli import main` to the call's return, as perfbench
           times setup_s; counts: the hyperpi modules loaded and the number of
           modules the import and the call added to sys.modules.

Each case's child program runs in a fresh interpreter that imports hyperpi
from the given tree, one per key, tree and repeat, so that no interpreter's
speed lands on more than one key.  The trees alternate key by key, and which
one goes first alternates with the repeat.  A child prints
{key: {"seconds": [...], "counts": {...}}}; the report pools the seconds of each
key and side and takes the counts of the first repeat.  A call that exits
nonzero stops the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import NamedTuple

import mpmath.libmp

PI_CHILD = """
import contextlib, io, json, math, sys, time
sys.path.insert(0, sys.argv[1])
from hyperpi.cli import main
method, digits = sys.argv[2], int(sys.argv[3])
with contextlib.redirect_stdout(io.StringIO()):
    main(["pi", "--method", method, "--digits", "50"])
    start = time.perf_counter()
    code = main(["pi", "--method", method, "--digits", str(digits)])
    seconds = time.perf_counter() - start
if code:
    sys.exit(f"pi --method {method} --digits {digits} exited {code}")
from hyperpi.hypergeometric import F_PARAMS, _plan
from hyperpi.numerics import ctx_new
terms, bits = _plan(F_PARAMS, -math.log(2), ctx_new(digits))  # log|z| at z = 1/2
print(json.dumps({f"{method} {digits}": {"seconds": [seconds],
                                         "counts": {"terms": terms, "fixed_point_bits": bits}}}))
"""

HYP2F1_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import mpmath
from hyperpi import hypergeometric, numerics
from hyperpi.hypergeometric import F2_PARAMS, F_PARAMS, hyp2f1

COUNTERS = {"terms": ("_plan", lambda args, out: out[0]),
            "read_bits": ("fixed_point", lambda args, out: args[1] if len(args) > 1 else 0)}
counts = {}


def counted(name, fn, pick):
    def wrapper(*args):
        out = fn(*args)
        counts[name] = max(counts.get(name, 0), pick(args, out))
        return out
    return wrapper


digits, z_text, name = int(sys.argv[2]), sys.argv[3], sys.argv[4]
p = {"F": F_PARAMS, "F2": F2_PARAMS}[name]
ctx = numerics.ctx_new(digits)
z = numerics.parse_complex(z_text, ctx) if z_text.endswith("i") else ctx.real(z_text)
originals = {attr: getattr(hypergeometric, attr) for attr, _ in COUNTERS.values()}
for key, (attr, pick) in COUNTERS.items():
    setattr(hypergeometric, attr, counted(key, originals[attr], pick))
try:
    value = hyp2f1(p, z, ctx)
finally:
    for attr, original in originals.items():
        setattr(hypergeometric, attr, original)
seconds = []
for _ in range(3):
    start = time.perf_counter()
    hyp2f1(p, z, ctx)
    seconds.append(time.perf_counter() - start)
with mpmath.workprec(ctx.mp.prec + 30):
    a, b, c = (mpmath.mpf(x.numerator) / x.denominator for x in (p.a, p.b, p.c))
    error = abs(mpmath.mpmathify(value) - mpmath.hyp2f1(a, b, c, mpmath.mpmathify(z)))
    error_eps = float(error * mpmath.mpf(10) ** ctx.working_digits)
print(json.dumps({f"{digits} {z_text} {name}": {
    "seconds": seconds,
    "counts": {**counts, "error_eps": float(f"{error_eps:.3g}")},
}}))
"""

QSERIES_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from hyperpi import modular
from hyperpi.numerics import ctx_new

FNS = {
    "eta": modular.eta,
    "E2": lambda t, ctx: modular.eisenstein(2, t, ctx),
    "E4": lambda t, ctx: modular.eisenstein(4, t, ctx),
    "E6": lambda t, ctx: modular.eisenstein(6, t, ctx),
    "lambda": modular.lambda_tau,
}
COUNTERS = {"lambert_n": "_lambert_count", "pentagonal_n": "_pentagonal_count"}
counts, calls = {}, {}


def counted(name, fn):
    def wrapper(*args):
        n = fn(*args)
        counts[name] = max(counts.get(name, n), n)
        calls[name] = calls.get(name, 0) + 1
        return n
    return wrapper


tau_text, name = sys.argv[2], sys.argv[3]
fn = FNS[name]
ctx = ctx_new(300)
re, im = tau_text[:-1].split("+")
tau = ctx.mp.mpc(ctx.mp.mpf(re), ctx.mp.mpf(im))
originals = {attr: getattr(modular, attr) for attr in COUNTERS.values() if hasattr(modular, attr)}
for key, attr in COUNTERS.items():
    if attr in originals:  # an older tree may lack one: its count is null
        setattr(modular, attr, counted(key, originals[attr]))
try:
    fn(modular.tau_point(tau, ctx), ctx)
finally:
    for attr, original in originals.items():
        setattr(modular, attr, original)
seconds = []
for _ in range(9):
    start = time.perf_counter()
    fn(modular.tau_point(tau, ctx), ctx)
    seconds.append(time.perf_counter() - start)
print(json.dumps({f"300 {tau_text} {name}": {"seconds": seconds,
                                             "counts": {**{key: counts.get(key) for key in COUNTERS},
                                                        "pentagonal_passes": calls.get("pentagonal_n")}}}))
"""

STARTUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
start = time.perf_counter()
from hyperpi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[3:])
seconds = time.perf_counter() - start
if code:
    sys.exit(f"{' '.join(sys.argv[3:])} exited {code}")
print(json.dumps({sys.argv[2]: {"seconds": [seconds], "counts": {
    "hyperpi_modules": sorted(m for m in sys.modules if m.split(".")[0] == "hyperpi"),
    "modules_added": len(set(sys.modules) - before)}}}))
"""

STARTUP_ARGV = {
    "pi": ["pi", "--digits", "50"],
    "verify": ["verify", "--digits", "20"],
    "eval e4": ["eval", "--fn", "e4", "--tau", "0.1+1i", "--digits", "20"],
    "eval F": ["eval", "--fn", "F", "--lambda", "0.5", "--digits", "20"],
    "cm-report": ["cm-report", "--abc", "1,0,4", "--digits", "20"],
    "selftest": ["selftest", "--digits", "10"],
}


class Case(NamedTuple):
    what: str
    child: str
    runs: list  # the child's arguments after the tree, one key each, one interpreter each per tree and repeat


CASES = {
    "pi": Case("seconds of one `hyperpi pi --method M --digits N` call after a warm-up, keyed 'M N'",
               PI_CHILD, [[m, str(d)] for d in (1000, 2000, 10000, 30000) for m in ("identity1", "identity2")]),
    "hyp2f1": Case("seconds of one hyp2f1 call at an mpf or mpc argument, keyed 'digits z series'", HYP2F1_CHILD,
                   [[str(d), z, name] for d in (30, 100, 300, 1000)
                    for z in ("0.3", "0.5", "-0.45", "0.9", "-0.9", "0.3+0.4i", "-0.2+0.1i", "-0.8+0.3i")
                    for name in ("F", "F2")]),
    "qseries": Case("seconds of tau_point and one public call on its point (eta, eisenstein(k), lambda), "
                    "keyed 'digits tau fn'", QSERIES_CHILD,
                    [[f"{re}+{im}i", name] for re in ("0", "0.3", "0.5") for im in ("0.05", "0.25", "1")
                     for name in ("eta", "E2", "E4", "E6", "lambda")]),
    "startup": Case("seconds from a fresh interpreter's `from hyperpi.cli import main` to the return of its "
                    "first call, keyed by subcommand", STARTUP_CHILD, [[k, *argv] for k, argv in STARTUP_ARGV.items()]),
}
SIDES = ("before", "after")


def run_child(child: str, src: str, args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-c", child, src, *args], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{src} {' '.join(args)}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case", choices=CASES)
    ap.add_argument("--before", required=True, help="src directory of the old tree")
    ap.add_argument("--after", required=True, help="src directory of the new tree")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    case = CASES[args.case]

    pooled = {side: {} for side in SIDES}
    for r in range(args.repeats):
        for run_args in case.runs:
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                for key, sample in run_child(case.child, getattr(args, side), run_args).items():
                    entry = pooled[side].setdefault(key, {"seconds": [], "counts": sample["counts"]})
                    entry["seconds"] += sample["seconds"]
                print(f"repeat {r} {side} {' '.join(run_args)}".rstrip(), file=sys.stderr)

    cases = {}
    for key in pooled["after"]:
        entry = {side: {"median_s": float(f"{statistics.median(pooled[side][key]['seconds']):.4g}"),
                        "counts": pooled[side][key]["counts"]} for side in SIDES}
        entry["speedup"] = round(entry["before"]["median_s"] / entry["after"]["median_s"], 2)
        cases[key] = entry
    report = {
        "what": f"median {case.what}, with hyperpi imported from the --before and the --after tree",
        "command": "python3 bench/compare.py " + " ".join(sys.argv[1:]),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "mpmath_backend": mpmath.libmp.BACKEND, "bytecode_written": not sys.dont_write_bytecode},
        "repeats": args.repeats,
        "cases": cases,
    }
    json.dump(report, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
