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
import json
import sys

from .cm import (
    CMQuadratic,
    identity_check,
    pi_from_identity,
    pi_reference_digits,
    quasiperiod_relation_check,
    theorem_general_check,
)
from .errors import IndeterminateFormError, ReductionError, RegionError
from .hypergeometric import legendre_F, legendre_F2
from .legendre import normalized_j
from .modular import delta_tau, eisenstein, eta, lambda_tau_reduced, s2, tau_point
from .numerics import ctx_new, format_value, parse_complex
from .reports import FormulaReport
from .suite import report_acceptable, selftest_reports


# --fn name -> {point option: evaluator of the parsed point}; j takes either
# point and prefers --lambda.  The evaluators look each function up by name
# when called, so a wrapper patched into this module (perfbench's tracer)
# sees the call.
_EVAL_FNS = {
    "lambda": {"tau": lambda t, ctx: lambda_tau_reduced(t, ctx)},
    "eta": {"tau": lambda t, ctx: eta(t, ctx)},
    "e2": {"tau": lambda t, ctx: eisenstein(2, t, ctx)},
    "e4": {"tau": lambda t, ctx: eisenstein(4, t, ctx)},
    "e6": {"tau": lambda t, ctx: eisenstein(6, t, ctx)},
    "delta": {"tau": lambda t, ctx: delta_tau(t, ctx)},
    "j": {"lambda": lambda lam, ctx: normalized_j(lam),
          "tau": lambda t, ctx: normalized_j(lambda_tau_reduced(t, ctx))},
    "s2": {"tau": lambda t, ctx: s2(t, ctx)},
    "F": {"lambda": lambda lam, ctx: legendre_F(lam, ctx)},
    "F2": {"lambda": lambda lam, ctx: legendre_F2(lam, ctx)},
}


def _build_parser() -> argparse.ArgumentParser:
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
    value = evaluators[option](tau_point(z, ctx) if option == "tau" else z, ctx)

    text = format_value(value, ctx, args.digits)
    if args.json:
        print(json.dumps({"fn": args.fn, "point": point, "digits": args.digits, "value": text}))
    else:
        print(text)
    return 0


def _run_verify(args) -> int:
    ctx = ctx_new(args.digits)
    which = [args.identity] if args.identity else [1, 2]
    return _emit_reports([identity_check(w, ctx) for w in which], args.json)


def _run_pi(args) -> int:
    which = 1 if args.method == "identity1" else 2
    digits = pi_from_identity(which, args.digits)
    if digits != pi_reference_digits(args.digits):
        print("error: identity engine disagrees with reference pi", file=sys.stderr)
        return 1
    print(digits)
    return 0


def _run_cm_report(args) -> int:
    try:
        a, b, c = (int(part) for part in args.abc.split(","))
        quad = CMQuadratic(a, b, c)
    except ValueError as exc:
        raise UsageError(f"bad --abc {args.abc!r}: {exc}") from exc
    ctx = ctx_new(args.digits)
    return _emit_reports([theorem_general_check(quad, ctx), quasiperiod_relation_check(quad, ctx)], args.json)


def _run_selftest(args) -> int:
    return _emit_reports(selftest_reports(args.digits, args.seed), args.json)


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
