"""Command-line front end.

Subcommands:

  eval       evaluate one function at a point (lambda, eta, e2, e4, e6,
             delta, j, s2, F, F2)
  verify     check the 1/pi identities
  pi         print pi digits from one of the identity engines
  cm-report  master-formula and quasi-period checks at a CM triple a,b,c
  selftest   run the whole verification suite at a chosen digit count

Exit codes: 0 all checks passed, 1 a check failed or a computation was
impossible, 2 usage error.  --json (every subcommand but pi) emits one
report object per line; --seed (selftest only) seeds the randomized checks.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import sys
from typing import TYPE_CHECKING

from .errors import IndeterminateFormError, ReductionError, RegionError
from .numerics import ctx_new, format_value, parse_complex

if TYPE_CHECKING:
    from .reports import FormulaReport

# Each subcommand imports the modules it runs when it runs: pi and verify
# load no modular, legendre or suite, and eval loads the one module of its
# function.


def _module(name: str):
    """hyperpi.<name>, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# --fn name -> {point option: evaluator of the parsed point}; j takes either
# point and prefers --lambda.  The evaluators look each function up in its
# module when called, so a wrapper patched into that module (perfbench's
# tracer) sees the call.
_EVAL_FNS = {
    "lambda": {"tau": lambda t, ctx: _module("modular").lambda_tau(t, ctx)},
    "eta": {"tau": lambda t, ctx: _module("modular").eta(t, ctx)},
    "e2": {"tau": lambda t, ctx: _module("modular").eisenstein(2, t, ctx)},
    "e4": {"tau": lambda t, ctx: _module("modular").eisenstein(4, t, ctx)},
    "e6": {"tau": lambda t, ctx: _module("modular").eisenstein(6, t, ctx)},
    "delta": {"tau": lambda t, ctx: _module("modular").delta_tau(t, ctx)},
    "j": {"lambda": lambda lam, ctx: _module("legendre").normalized_j(lam),
          "tau": lambda t, ctx: _module("modular")._rounded(
              _module("legendre").normalized_j(_module("modular").lambda_tau(t, ctx)), t, ctx)},
    "s2": {"tau": lambda t, ctx: _module("modular").s2(t, ctx)},
    "F": {"lambda": lambda lam, ctx: _module("hypergeometric").legendre_F(lam, ctx)},
    "F2": {"lambda": lambda lam, ctx: _module("hypergeometric").legendre_F2(lam, ctx)},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="hyperpi", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, json_flag=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--digits", type=int, default=50, help="requested decimal digits (default 50)")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit newline-delimited JSON reports")
        return p

    p_eval = subcommand("eval", "evaluate a function at a point")
    p_eval.add_argument("--fn", required=True, choices=list(_EVAL_FNS))
    p_eval.add_argument("--tau", help="upper-half-plane point, e.g. 0+2i")
    p_eval.add_argument("--lambda", help="lambda argument, e.g. 0.5 or -1")

    p_verify = subcommand("verify", "check the 1/pi identities")
    p_verify.add_argument("--identity", type=int, choices=[1, 2],
                          help="which identity (default: both)")

    p_pi = subcommand("pi", "pi digits from an identity engine", json_flag=False)
    p_pi.add_argument("--method", choices=["identity1", "identity2"], default="identity1")

    p_cm = subcommand("cm-report", "CM checks for a quadratic a,b,c")
    p_cm.add_argument("--abc", required=True, help="comma-separated integers, e.g. 1,0,4")

    p_self = subcommand("selftest", "run the full verification suite")
    p_self.add_argument("--seed", type=int, default=0, help="seed for randomized checks (default 0)")
    return parser


def _emit_reports(reports: list[FormulaReport], as_json: bool) -> int:
    from .reports import report_acceptable

    ok = True
    for report in reports:
        print(report.to_json() if as_json else report.summary_line())
        ok = ok and report_acceptable(report)
    if not as_json:
        n_pass = sum(r.passed for r in reports)
        line = f"{n_pass}/{len(reports)} checks passed"
        quantified = sum(1 for r in reports if report_acceptable(r) and not r.passed)
        if quantified:
            line += f" ({quantified} quantified branch discrepancy accepted)"
        print(line)
    return 0 if ok else 1


def _parse_point(text: str, ctx):
    try:
        return parse_complex(text, ctx)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run_eval(args) -> int:
    options = vars(args)
    evaluators = _EVAL_FNS[args.fn]
    given = [option for option in evaluators if options[option] is not None]
    if not given:
        raise UsageError(f"--fn {args.fn} requires " + " or ".join(f"--{option}" for option in evaluators))
    option, point = given[0], options[given[0]]
    ctx = ctx_new(args.digits)
    z = _parse_point(point, ctx)
    if option == "tau" and z.imag > 0:
        # the reduction scales the rounding error of a decimal tau by up to |tau| max(1, Im(tau)^-2):
        # read it again with those digits added, bounded by mag, as |x| <= 2^mag(x) < 4 |x|
        bits = max(0, ctx.mp.mag(z)) + 2 * max(0, 2 - ctx.mp.mag(z.imag))
        z = _parse_point(point, ctx_new(args.digits + math.ceil(bits * math.log10(2)) + 1))
    value = evaluators[option](_module("modular").tau_point(z, ctx) if option == "tau" else z, ctx)

    text = format_value(value, ctx, args.digits)
    if args.json:
        print(json.dumps({"fn": args.fn, "point": point, "digits": args.digits, "value": text}))
    else:
        print(text)
    return 0


def _run_verify(args) -> int:
    from .cm import identity_check

    ctx = ctx_new(args.digits)
    which = [args.identity] if args.identity else [1, 2]
    return _emit_reports([identity_check(w, ctx) for w in which], args.json)


def _run_pi(args) -> int:
    from .cm import pi_from_identity, pi_reference_digits

    which = 1 if args.method == "identity1" else 2
    digits = pi_from_identity(which, args.digits)
    if digits != pi_reference_digits(args.digits):
        print("error: identity engine disagrees with reference pi", file=sys.stderr)
        return 1
    print(digits)
    return 0


def _run_cm_report(args) -> int:
    from .cm import CMQuadratic, quasiperiod_relation_check, theorem_general_check

    try:
        a, b, c = (int(part) for part in args.abc.split(","))
        quad = CMQuadratic(a, b, c)
    except ValueError as exc:
        raise UsageError(f"bad --abc {args.abc!r}: {exc}") from exc
    ctx = ctx_new(args.digits)
    return _emit_reports([theorem_general_check(quad, ctx), quasiperiod_relation_check(quad, ctx)], args.json)


def _run_selftest(args) -> int:
    from .suite import selftest_reports

    return _emit_reports(selftest_reports(args.digits, args.seed), args.json)


class UsageError(Exception):
    pass


_POINT_OPTIONS = ("--tau", "--lambda")


def _attach_point_values(argv: list[str]) -> list[str]:
    """--tau V / --lambda V as --tau=V / --lambda=V, so that a point starting
    with '-' (-0.5+1i) is read as the option's value, not as an option.  An
    option with no value after it, or with another option after it, stays
    as it is and argparse reports it."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _POINT_OPTIONS and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else list(argv)))
    if args.digits < 1:
        parser.exit(2, "error: --digits must be a positive integer\n")
    runners = {
        "eval": _run_eval,
        "verify": _run_verify,
        "pi": _run_pi,
        "cm-report": _run_cm_report,
        "selftest": _run_selftest,
    }
    try:
        return runners[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RegionError, IndeterminateFormError, ReductionError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
