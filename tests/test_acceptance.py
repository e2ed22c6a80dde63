"""Acceptance suite: every criterion at its contracted digit count and
tolerance, one test (and one printed PASS line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest

from hyperpi import (
    cm_tau,
    CMQuadratic,
    lambda_q_coeffs,
    parse_real,
    pi_from_identity,
    pi_reference_digits,
)
from hyperpi.numerics import ctx_new
from hyperpi.suite import (
    agm_oracle_reports,
    cm_lambda_reports,
    e2_fixed_point_report,
    functional_equation_reports,
    homothety_reports,
    identity_reports,
    pi_engine_reports,
    quasiperiod_reports,
    residual_reports,
    theorem_check_reports,
    theorem_general_reports,
)


def _announce(n, text):
    print(f"ACCEPTANCE criterion {n:2d}: PASS — {text}")


def _assert_all(reports):
    for report in reports:
        assert report.passed, report.summary_line()


def test_criterion_01_identity1_100_digits(ctx100):
    start = time.perf_counter()
    report = identity_reports(100)[0]
    elapsed = time.perf_counter() - start
    assert report.passed, report.summary_line()
    assert parse_real(report.abs_error, ctx100) < ctx100.real("1e-95")
    assert elapsed < 5.0
    _announce(1, f"|8/pi - F(1/2) F2(1/2)| = {report.abs_error} < 1e-95 in {elapsed:.2f}s")


def test_criterion_02_identity2_100_digits(ctx100):
    start = time.perf_counter()
    report = identity_reports(100)[1]
    elapsed = time.perf_counter() - start
    assert report.passed, report.summary_line()
    assert parse_real(report.abs_error, ctx100) < ctx100.real("1e-95")
    assert elapsed < 5.0
    _announce(2, f"|1/pi - (F(-1)^2 - F(-1) F2(-1))| = {report.abs_error} < 1e-95 in {elapsed:.2f}s")


def test_criterion_03_master_formula_at_three_cm_points():
    start = time.perf_counter()
    reports = theorem_general_reports(60)
    elapsed = time.perf_counter() - start
    _assert_all(reports)  # pass rule at 60 digits is abs_error < 1e-55
    assert elapsed < 30.0
    worst = max(r.abs_error for r in reports)
    _announce(3, f"master CM formula at (1,0,1),(1,-2,2),(1,0,4): worst {worst}, {elapsed:.1f}s")


def test_criterion_04_quasiperiod_relation_at_three_cm_points():
    reports = quasiperiod_reports(60)
    _assert_all(reports)
    worst = max(r.abs_error for r in reports)
    _announce(4, f"quasi-period relation vs reference pi at all three triples: worst {worst}")


def test_criterion_05_lambda_expansion_prefix_exact():
    assert lambda_q_coeffs(3) == [16, -128, 704]
    _announce(5, "lambda q-expansion coefficients [16, -128, 704] exact")


def test_criterion_06_cm_lambda_values_50_digits():
    reports = cm_lambda_reports(50)
    _assert_all(reports)  # abs_error < 1e-45 each
    _announce(6, "lambda(i) = 1/2, lambda(1+i) = -1, lambda((1+i)/2) = 2 to 1e-45")


def test_criterion_07_e2_fixed_point_50_digits():
    report = e2_fixed_point_report(50)
    assert report.passed, report.summary_line()
    _announce(7, f"E2(i) = 3/pi with abs_error {report.abs_error} < 1e-45")


def test_criterion_08_functional_equations_seeded():
    reports = functional_equation_reports(50, seed=0)
    assert len(reports) == 40
    _assert_all(reports)
    worst = max(r.abs_error for r in reports)
    _announce(8, f"eta/lambda functional equations at 10 seeded tau: worst {worst} < 1e-45")


def test_criterion_09_agm_oracle_seeded():
    reports = agm_oracle_reports(50, seed=0)
    assert len(reports) == 20
    _assert_all(reports)
    worst = max(r.abs_error for r in reports)
    _announce(9, f"F(lambda) vs 1/agm(1, sqrt(1-lambda)) at 20 seeded points: worst {worst} < 1e-45")


def test_criterion_10_ode_residuals_on_grid():
    reports = residual_reports()
    assert len(reports) == 30
    _assert_all(reports)  # digits_requested=20 -> threshold 1e-15
    worst = max(r.abs_error for r in reports)
    _announce(10, f"Picard-Fuchs and Bruns residuals on the lambda grid: worst {worst} < 1e-15")


def test_criterion_11_period_identity_checks():
    reports = theorem_check_reports(50)
    assert len(reports) == 5
    _assert_all(reports)
    worst = max(r.abs_error for r in reports)
    _announce(11, f"period identities at 2i,3i, i/2,i/3 and 1+i/2: worst {worst} < 1e-45")


@pytest.mark.parametrize("which", [1, 2])
def test_criterion_12_pi_engine_1000_digits(which):
    start = time.perf_counter()
    got = pi_from_identity(which, 1000)
    elapsed = time.perf_counter() - start
    assert got == pi_reference_digits(1000)
    assert elapsed < 60.0
    _announce(12, f"pi_from_identity({which}, 1000) matches reference on all 1000 digits in {elapsed:.2f}s")


def test_criterion_13_homothety_adjudication():
    reports = homothety_reports(45)  # pass rule: cross-tau agreement < 1e-40
    _assert_all(reports)
    constants = {r.label.split()[1]: r.lhs for r in reports}
    _announce(13, f"homothety expression ratios to pi*F reproducible at 2i vs 3i: {constants}")


def test_nonvanishing_s2_case_sits_at_2i():
    # criterion 3's (1,0,4) case exercises the s2 term away from E6 zeros
    ctx = ctx_new(30)
    t = cm_tau(CMQuadratic(1, 0, 4), ctx)
    assert t.tau == ctx.mp.mpc(0, 2)
