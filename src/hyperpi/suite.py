"""The verification suite behind `hyperpi selftest` and the acceptance tests.

Each function returns FormulaReports for one family of checks, at a caller
chosen digit count.  Randomized families take an explicit seed and carry it
in their labels so any reported failure is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cm import (
    CMQuadratic,
    identity_check,
    pi_from_identity,
    pi_reference_digits,
    quasiperiod_relation_check,
    theorem_general_check,
)
from .hypergeometric import hyp_via_agm, legendre_F, picard_fuchs_residual
from .legendre import (
    bruns_residuals,
    check_theorem_around1,
    check_theorem_period,
    check_theorem_transform,
    homothety_ratios,
)
from .modular import _eta_lambda_series, _raw_point, eisenstein, lambda_q_coeffs, lambda_tau, tau_point
from .numerics import PrecisionCtx, ctx_new, pi_reference
from .reports import FormulaReport, make_report, report_acceptable  # report_acceptable: re-exported

CM_TRIPLES = (CMQuadratic(1, 0, 1), CMQuadratic(1, -2, 2), CMQuadratic(1, 0, 4))

LAMBDA_PREFIX = [16, -128, 704]
FUNCTIONAL_EQUATION_POINTS = 10
AGM_ORACLE_POINTS = 20


def identity_reports(digits: int) -> list[FormulaReport]:
    ctx = ctx_new(digits)
    return [identity_check(which, ctx) for which in (1, 2)]


def theorem_general_reports(digits: int) -> list[FormulaReport]:
    ctx = ctx_new(digits)
    return [theorem_general_check(q, ctx) for q in CM_TRIPLES]


def quasiperiod_reports(digits: int) -> list[FormulaReport]:
    ctx = ctx_new(digits)
    return [quasiperiod_relation_check(q, ctx) for q in CM_TRIPLES]


def lambda_coeff_report() -> FormulaReport:
    got = lambda_q_coeffs(3)
    return FormulaReport(
        label="lambda-q-coeffs n=3",
        lhs=str(got),
        rhs=str(LAMBDA_PREFIX),
        abs_error="0.0" if got == LAMBDA_PREFIX else "1.0",
        digits_requested=6,
        passed=got == LAMBDA_PREFIX,
    )


def cm_lambda_reports(digits: int) -> list[FormulaReport]:
    """lambda at the three rational CM values: 1/2, -1, 2."""
    ctx = ctx_new(digits)
    mp = ctx.mp
    points = [
        ("i", mp.mpc(0, 1), mp.mpf(1) / 2),
        ("1+i", mp.mpc(1, 1), mp.mpf(-1)),
        ("(1+i)/2", mp.mpc(1, 1) / 2, mp.mpf(2)),
    ]
    reports = []
    for name, tau, expected in points:
        lam = lambda_tau(tau_point(tau, ctx), ctx)
        reports.append(make_report(f"cm-lambda tau={name}", lam, expected, ctx))
    return reports


def e2_fixed_point_report(digits: int) -> FormulaReport:
    """E2(i) = 3/pi."""
    ctx = ctx_new(digits)
    t = tau_point(ctx.mp.mpc(0, 1), ctx)
    return make_report("eisenstein-E2 tau=i", eisenstein(2, t, ctx), 3 / pi_reference(ctx), ctx)


def functional_equation_reports(digits: int, seed: int = 0) -> list[FormulaReport]:
    """eta(tau+1) = e^(i pi/12) eta(tau), eta(-1/tau) = eta(tau) sqrt(-i tau),
    lambda(tau+1) = lambda/(lambda-1), lambda(-1/tau) = 1 - lambda,
    at seeded random tau with Im in [0.6, 3], each side summed at its own
    point (Im(-1/tau) >= 0.3): the reduction would map all three to one.
    eta and lambda at one point share that point's P(q)."""
    ctx = ctx_new(digits)
    mp = ctx.mp
    pi = pi_reference(ctx)
    rng = random.Random(seed)
    reports = []
    for k in range(FUNCTIONAL_EQUATION_POINTS):
        tau = mp.mpc(mp.mpf(repr(rng.uniform(-1.0, 1.0))), mp.mpf(repr(rng.uniform(0.6, 3.0))))
        tag = f"tau#{k:02d} seed={seed}"
        (eta_t, lam), (eta_shifted, lam_shifted), (eta_inverted, lam_inverted) = (
            _eta_lambda_series(_raw_point(z, ctx), ctx) for z in (tau, tau + 1, -1 / tau))
        rhs = mp.exp(mp.mpc(0, pi / 12)) * eta_t
        reports.append(make_report(f"eta-T {tag}", eta_shifted, rhs, ctx))
        rhs = eta_t * mp.sqrt(mp.mpc(0, -1) * tau)
        reports.append(make_report(f"eta-S {tag}", eta_inverted, rhs, ctx))
        reports.append(make_report(f"lambda-T {tag}", lam_shifted, lam / (lam - 1), ctx))
        reports.append(make_report(f"lambda-S {tag}", lam_inverted, 1 - lam, ctx))
    return reports


def agm_oracle_reports(digits: int, seed: int = 0) -> list[FormulaReport]:
    """F(lambda) against 1/agm(1, sqrt(1-lambda)) at seeded lambda in (0, 0.9)."""
    ctx = ctx_new(digits)
    rng = random.Random(seed)
    reports = []
    for k in range(AGM_ORACLE_POINTS):
        lam = ctx.mp.mpf(repr(rng.uniform(0.005, 0.9)))
        lhs = legendre_F(lam, ctx)
        rhs = hyp_via_agm(lam, ctx)
        reports.append(make_report(f"agm-oracle lam#{k:02d} seed={seed}", lhs, rhs, ctx))
    return reports


RESIDUAL_GRID = [Fraction(n, 100) for n in range(5, 55, 5)]
RESIDUAL_DIGITS = 20  # pass threshold 10^-15 via the digits-5 rule


def residual_reports() -> list[FormulaReport]:
    """Picard-Fuchs and Bruns residuals on the lambda grid, at 60 working digits.

    The second Bruns relation is checked with a central-difference
    dH1/dlambda, which caps the attainable residual around h^2; 10^-15 is
    the contract at this precision.
    """
    ctx = PrecisionCtx(48)  # guard 12 -> exactly 60 working digits
    reports = []
    for frac in RESIDUAL_GRID:
        lam = ctx.real(frac)
        tag = f"lam={frac.numerator}/{frac.denominator}"
        pf = picard_fuchs_residual(lam, ctx)
        reports.append(_residual_report(f"picard-fuchs {tag}", pf, ctx))
        res1, res2 = bruns_residuals(lam, ctx)
        reports.append(_residual_report(f"bruns-1 {tag}", res1, ctx))
        reports.append(_residual_report(f"bruns-2 {tag}", res2, ctx))
    return reports


def _residual_report(label: str, residual, ctx: PrecisionCtx) -> FormulaReport:
    return make_report(label, residual, 0, ctx, digits=RESIDUAL_DIGITS)


def theorem_check_reports(digits: int) -> list[FormulaReport]:
    """Period identities, every root from eta products: around infinity at
    2i, 3i; around 0 at i/2, i/3; around 1 at 1 + i/2."""
    ctx = ctx_new(digits)
    mp = ctx.mp
    points = [(check_theorem_period, mp.mpc(0, y)) for y in (2, 3)]
    points += [(check_theorem_transform, mp.mpc(0, ctx.real(y))) for y in (Fraction(1, 2), Fraction(1, 3))]
    points.append((check_theorem_around1, mp.mpc(1, ctx.real(Fraction(1, 2)))))
    return [check(tau_point(tau, ctx), ctx) for check, tau in points]


def homothety_reports(digits: int) -> list[FormulaReport]:
    """Cross-tau reproducibility of the three homothety-expression ratios.

    Each ratio mu_k / (pi F(lambda)) is computed at tau = 2i and tau = 3i;
    a constant expression must give the same ratio at both points.  The
    measured constants stay in the report (lhs/rhs), deliberately
    unreconciled with any expected value.
    """
    ctx = ctx_new(digits)
    mp = ctx.mp
    at_2i = homothety_ratios(tau_point(mp.mpc(0, 2), ctx), ctx)
    at_3i = homothety_ratios(tau_point(mp.mpc(0, 3), ctx), ctx)
    names = ("sqrt-form", "j-form", "closed-form")
    return [
        make_report(f"homothety-ratio {name} (2i vs 3i)", r2, r3, ctx)
        for name, r2, r3 in zip(names, at_2i, at_3i)
    ]


def pi_engine_reports(digits: int) -> list[FormulaReport]:
    """Digit-for-digit comparison of both identity engines against reference pi."""
    reference = pi_reference_digits(digits)
    ctx = ctx_new(digits)  # full precision, so abs_error is honest
    reports = []
    for which in (1, 2):
        got = pi_from_identity(which, digits)
        err = abs(ctx.mp.mpf(got) - ctx.mp.mpf(reference))
        reports.append(
            FormulaReport(
                label=f"pi-engine identity{which} digits={digits}",
                lhs=got,
                rhs=reference,
                abs_error=ctx.mp.nstr(err, 3),
                digits_requested=digits,
                passed=got == reference,
            )
        )
    return reports


def selftest_reports(digits: int, seed: int = 0) -> list[FormulaReport]:
    """Every check family, scaled to the requested digit count."""
    reports = []
    reports += identity_reports(digits)
    reports += theorem_general_reports(digits)
    reports += quasiperiod_reports(digits)
    reports.append(lambda_coeff_report())
    reports += cm_lambda_reports(digits)
    reports.append(e2_fixed_point_report(digits))
    reports += functional_equation_reports(digits, seed)
    reports += agm_oracle_reports(digits, seed)
    reports += residual_reports()
    reports += theorem_check_reports(digits)
    reports += homothety_reports(digits)
    reports += pi_engine_reports(digits)
    return reports
