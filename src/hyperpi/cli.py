"""Command-line front end.

Subcommands:

  eval       evaluate one function at a point (lambda, eta, e2, e4, e6,
             delta, j, s2, F, F2)
  verify     check the 1/pi identities
  pi         print pi digits from one of the identity engines
  cm-report  master-formula and quasi-period checks at a CM triple a,b,c
  selftest   run the whole verification suite at a chosen digit count

Exit codes: 0 all checks passed, 1 a check failed or a computation was
impossible, 2 usage error.  --json emits one report object per line.
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
from .modular import delta_tau, eisenstein, eta, lambda_tau_reduced, normalized_j, s2, tau_point
from .numerics import ctx_new, format_value, parse_complex
from .reports import FormulaReport
from .suite import report_acceptable, selftest_reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperpi", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=50, help="requested decimal digits (default 50)")
        p.add_argument("--json", action="store_true", help="emit newline-delimited JSON reports")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks (default 0)")

    p_eval = sub.add_parser("eval", help="evaluate a function at a point")
    common(p_eval)
    p_eval.add_argument("--fn", required=True,
                        choices=["lambda", "eta", "e2", "e4", "e6", "delta", "j", "s2", "F", "F2"])
    p_eval.add_argument("--tau", help="upper-half-plane point, e.g. 0+2i")
    p_eval.add_argument("--lambda", dest="lam", help="lambda argument, e.g. 0.5 or -1")

    p_verify = sub.add_parser("verify", help="check the 1/pi identities")
    common(p_verify)
    p_verify.add_argument("--identity", type=int, choices=[1, 2],
                          help="which identity (default: both)")

    p_pi = sub.add_parser("pi", help="pi digits from an identity engine")
    common(p_pi)
    p_pi.add_argument("--method", choices=["identity1", "identity2"], default="identity1")

    p_cm = sub.add_parser("cm-report", help="CM checks for a quadratic a,b,c")
    common(p_cm)
    p_cm.add_argument("--abc", required=True, help="comma-separated integers, e.g. 1,0,4")

    p_self = sub.add_parser("selftest", help="run the full verification suite")
    common(p_self)
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
    ctx = ctx_new(args.digits)
    needs_tau = args.fn in ("lambda", "eta", "e2", "e4", "e6", "delta", "s2")
    if needs_tau and not args.tau:
        raise UsageError(f"--fn {args.fn} requires --tau")
    if args.fn in ("F", "F2") and args.lam is None:
        raise UsageError(f"--fn {args.fn} requires --lambda")
    if args.fn == "j" and args.lam is None and args.tau is None:
        raise UsageError("--fn j requires --lambda or --tau")

    if args.tau is not None:
        t = tau_point(_parse_point(args.tau, ctx), ctx)
    if args.fn == "lambda":
        value = lambda_tau_reduced(t, ctx)
    elif args.fn == "eta":
        value = eta(t, ctx)
    elif args.fn in ("e2", "e4", "e6"):
        value = eisenstein(int(args.fn[1]), t, ctx)
    elif args.fn == "delta":
        value = delta_tau(t, ctx)
    elif args.fn == "s2":
        value = s2(t, ctx)
    elif args.fn == "j":
        lam = _parse_point(args.lam, ctx) if args.lam is not None else lambda_tau_reduced(t, ctx)
        value = normalized_j(lam)
    elif args.fn == "F":
        value = legendre_F(_parse_point(args.lam, ctx), ctx)
    else:
        value = legendre_F2(_parse_point(args.lam, ctx), ctx)

    text = format_value(value, ctx, args.digits)
    if args.json:
        point = args.tau if args.tau is not None else args.lam
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
