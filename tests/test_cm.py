import json
import math

import mpmath
import pytest

from hyperpi import (
    CMQuadratic,
    FormulaReport,
    RegionError,
    cm_tau,
    combined_s2_term,
    identity_check,
    lambda_tau,
    legendre_F,
    legendre_F2,
    make_report,
    parse_complex,
    parse_real,
    pi_from_identity,
    pi_reference,
    pi_reference_digits,
    quasiperiod_bruns,
    quasiperiod_relation_check,
    s2,
    tau_point,
    theorem_general_check,
    weierstrass_from_lambda,
)
from hyperpi.numerics import ctx_new

TRIPLES = [(1, 0, 1), (1, -2, 2), (1, 0, 4)]


def _mpc(ctx, re, im):
    return ctx.mp.mpc(ctx.real(re), ctx.real(im))


class TestCMQuadratic:
    def test_d(self):
        assert CMQuadratic(1, 0, 4).d == 16

    @pytest.mark.parametrize("abc", [(2, 0, 2), (0, 0, 1), (-1, 0, -1), (1, 3, 1)])
    def test_invalid_rejected(self, abc):
        with pytest.raises(ValueError):
            CMQuadratic(*abc)

    @pytest.mark.parametrize(
        "abc,tau",
        [((1, 0, 1), (0, 1)), ((1, -2, 2), (1, 1)), ((2, -2, 1), ("0.5", "0.5"))],
    )
    def test_cm_tau(self, ctx50, abc, tau):
        t = cm_tau(CMQuadratic(*abc), ctx50)
        assert abs(t.tau - _mpc(ctx50, *tau)) < ctx50.eps * 10

    def test_lambda_two_at_half_plus_half_i(self, ctx50):
        t = cm_tau(CMQuadratic(2, -2, 1), ctx50)
        lam = lambda_tau(t, ctx50)
        assert abs(lam - 2) < ctx50.real("1e-45")


class TestCombinedS2:
    @pytest.mark.parametrize("abc", [(1, 0, 1), (1, -2, 2)])
    def test_vanishes_at_e6_zeros(self, ctx50, abc):
        t = cm_tau(CMQuadratic(*abc), ctx50)
        F = legendre_F(lambda_tau(t, ctx50), ctx50)
        assert abs(combined_s2_term(t, F, ctx50)) < ctx50.real("1e-45")

    def test_matches_raw_route_at_2i(self, ctx50):
        # away from E6 zeros the combined form must equal (3g3/2g2) s2
        t = cm_tau(CMQuadratic(1, 0, 4), ctx50)
        lam = lambda_tau(t, ctx50)
        F = legendre_F(lam, ctx50)
        combined = combined_s2_term(t, F, ctx50)
        curve = weierstrass_from_lambda(lam)
        raw = 3 * curve.g3 / (2 * curve.g2) * s2(t, ctx50)
        assert abs(combined - raw) < ctx50.real("1e-50")


class TestQuasiPeriodRelation:
    @pytest.mark.parametrize("abc", TRIPLES)
    def test_passes(self, ctx60, abc):
        report = quasiperiod_relation_check(CMQuadratic(*abc), ctx60)
        assert report.passed, report.summary_line()

    def test_product_form_at_i(self, ctx50):
        # s2 term vanishes and Im = 1: Omega1 H1 = pi
        lam = ctx50.real("0.5")
        pair = quasiperiod_bruns(lam, ctx50)
        assert abs(pair.omega1 * pair.h1 - pi_reference(ctx50)) < ctx50.real("1e-45")


class TestMasterFormula:
    @pytest.mark.parametrize("abc", TRIPLES)
    def test_passes(self, ctx60, abc):
        report = theorem_general_check(CMQuadratic(*abc), ctx60)
        assert report.passed, report.summary_line()

    def test_reduces_to_identity1_at_i(self, ctx50):
        # (1,0,1): lambda = 1/2, bracket term vanishes, lhs = F F2 / 8
        report = theorem_general_check(CMQuadratic(1, 0, 1), ctx50)
        half = ctx50.real("0.5")
        expected = legendre_F(half, ctx50) * legendre_F2(half, ctx50) / 8
        assert abs(parse_complex(report.lhs, ctx50) - expected) < ctx50.real("1e-40")

    def test_reduces_to_identity2_at_1_plus_i(self, ctx50):
        # (1,-2,2): lambda = -1, lhs = F^2 - F F2
        report = theorem_general_check(CMQuadratic(1, -2, 2), ctx50)
        F = legendre_F(-1, ctx50)
        expected = F * F - F * legendre_F2(-1, ctx50)
        assert abs(parse_complex(report.lhs, ctx50) - expected) < ctx50.real("1e-40")

    def test_equivalent_forms_agree(self, ctx50):
        # (1,0,1) and (1,-2,2) are translates; both sides equal 1/pi
        lhs_i = parse_complex(theorem_general_check(CMQuadratic(1, 0, 1), ctx50).lhs, ctx50)
        lhs_t = parse_complex(theorem_general_check(CMQuadratic(1, -2, 2), ctx50).lhs, ctx50)
        assert abs(lhs_i - lhs_t) < ctx50.real("1e-40")

    @pytest.mark.parametrize("abc", TRIPLES)
    def test_consistency_with_quasiperiod(self, ctx50, abc):
        # master lhs = quasi-period lhs / (Im(tau) pi^2)
        quad = CMQuadratic(*abc)
        ctx = ctx50
        thm = parse_complex(theorem_general_check(quad, ctx).lhs, ctx)
        quasi = parse_complex(quasiperiod_relation_check(quad, ctx).lhs, ctx)
        t = cm_tau(quad, ctx)
        pi = pi_reference(ctx)
        assert abs(thm - quasi / (t.im * pi * pi)) < ctx.real("1e-40")


def _reduced_forms(d_max: int) -> list[tuple[int, int, int]]:
    """Every reduced primitive form (a, b, c) with d = 4ac - b^2 <= d_max:
    |b| <= a <= c, with b >= 0 where |b| = a or a = c.  Then d >= 3a^2."""
    forms = []
    for a in range(1, math.isqrt(d_max // 3) + 1):
        for b in range(1 - a, a + 1):
            c = a
            while 4 * a * c - b * b <= d_max:
                if math.gcd(a, b, c) == 1 and not (c == a and b < 0):
                    forms.append((a, b, c))
                c += 1
    return forms


CM_FORMS = _reduced_forms(100)
# lambda(tau) at d = 3 has modulus 1, outside both 2F1 regions
OUTSIDE_REGIONS = (1, 1, 1)


class TestEveryCMForm:
    """The master formula and the quasi-period relation at each CM point of
    discriminant -d, d <= 100: one point per class of forms."""

    def test_count(self):
        # the class numbers h(-d) of the d <= 100 with d = 0 or 3 mod 4 sum to 132
        assert len(CM_FORMS) == 132

    @pytest.mark.parametrize("abc", CM_FORMS, ids=lambda abc: ",".join(map(str, abc)))
    def test_theorem_and_quasiperiod_relation(self, ctx50, abc):
        quad = CMQuadratic(*abc)
        for check in (theorem_general_check, quasiperiod_relation_check):
            if abc == OUTSIDE_REGIONS:
                with pytest.raises(RegionError):
                    check(quad, ctx50)
            else:
                report = check(quad, ctx50)
                assert report.passed, report.summary_line()


class TestIdentities:
    def test_identity1_100_digits(self, ctx100):
        report = identity_check(1, ctx100)
        assert report.passed
        assert parse_real(report.abs_error, ctx100) < ctx100.real("1e-95")

    def test_identity2_100_digits(self, ctx100):
        report = identity_check(2, ctx100)
        assert report.passed
        assert parse_real(report.abs_error, ctx100) < ctx100.real("1e-95")

    def test_identity1_10_digits(self):
        assert identity_check(1, ctx_new(10)).passed


class TestPiEngine:
    def test_ten_digits(self):
        assert pi_from_identity(1, 10) == "3.141592653"
        assert pi_from_identity(2, 10) == "3.141592653"
        assert pi_reference_digits(10) == "3.141592653"

    @pytest.mark.parametrize("digits", [10, 100])
    def test_method_independence(self, digits):
        ref = pi_reference_digits(digits)
        assert pi_from_identity(1, digits) == ref
        assert pi_from_identity(2, digits) == ref

    @pytest.mark.parametrize("digits", [1, 2, 10, 5000])
    @pytest.mark.parametrize("which", [1, 2])
    def test_matches_mpmath_pi(self, which, digits):
        # mpmath's own pi; ten extra rounded digits leave the first ones exact
        with mpmath.workdps(digits + 20):
            expected = mpmath.nstr(+mpmath.pi, digits + 10)[: digits + 1].rstrip(".")
        assert pi_from_identity(which, digits) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pi_from_identity(3, 10)
        with pytest.raises(ValueError):
            pi_from_identity(1, 0)


class TestFormulaReport:
    def test_json_schema_exact(self, ctx50):
        report = identity_check(1, ctx50)
        data = json.loads(report.to_json())
        assert set(data) == {"label", "lhs", "rhs", "abs_error", "digits_requested", "pass", "branch_flags"}
        assert data["pass"] is True
        assert data["digits_requested"] == 50
        assert isinstance(data["branch_flags"], list)
        parse_real(data["lhs"], ctx50)  # lhs/rhs are decimal strings
        parse_real(data["abs_error"], ctx50)

    def test_pass_rule(self, ctx50):
        at = ctx50.real("1e-45")
        just_under = make_report("x", 0, at / 2, ctx50)
        assert just_under.passed
        just_over = make_report("x", 0, at * 2, ctx50)
        assert not just_over.passed

    def test_complex_sides_serialize(self, ctx50):
        report = make_report("x", ctx50.mp.mpc(1, 1), 1, ctx50)
        z = parse_complex(report.lhs, ctx50)
        assert z.imag == 1

    def test_dict_roundtrip(self, ctx50):
        report = identity_check(2, ctx50)
        data = report.to_dict()
        clone = FormulaReport(
            label=data["label"],
            lhs=data["lhs"],
            rhs=data["rhs"],
            abs_error=data["abs_error"],
            digits_requested=data["digits_requested"],
            passed=data["pass"],
            branch_flags=data["branch_flags"],
        )
        assert clone.to_dict() == data
