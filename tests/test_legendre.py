import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from hyperpi import (
    bruns_residuals,
    check_theorem_around1,
    check_theorem_period,
    check_theorem_transform,
    delta_tau,
    eta,
    homothety_mu,
    homothety_ratios,
    lambda_tau,
    legendre_F,
    legendre_F2,
    parse_complex,
    period_classical,
    pi_reference,
    quasiperiod_bruns,
    tau_point,
    weierstrass_from_lambda,
)
from hyperpi import hypergeometric, legendre
from hyperpi.numerics import PrecisionCtx, ctx_new

from _oracles import F_HALF


def _mpc(ctx, re, im):
    return ctx.mp.mpc(ctx.real(re), ctx.real(im))


class TestWeierstrass:
    def test_lambda_half(self):
        curve = weierstrass_from_lambda(Fraction(1, 2))
        assert (curve.g2, curve.g3, curve.disc) == (1, 0, 1)
        assert not curve.degenerate

    def test_lambda_minus_one(self):
        curve = weierstrass_from_lambda(-1)
        assert (curve.g2, curve.g3, curve.disc) == (4, 0, 64)

    def test_degenerate_flagged(self):
        assert weierstrass_from_lambda(0).degenerate
        assert weierstrass_from_lambda(1).degenerate
        assert not weierstrass_from_lambda(2).degenerate

    def test_root_sum_zero_exact(self):
        rng = random.Random(2)
        for _ in range(10):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            curve = weierstrass_from_lambda(lam)
            assert curve.e0 + curve.e1 + curve.e_lam == 0

    def test_disc_identity_exact(self):
        rng = random.Random(4)
        for _ in range(10):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            curve = weierstrass_from_lambda(lam)
            assert curve.g2**3 - 27 * curve.g3**2 == curve.disc

    def test_scaling_preserves_disc_identity(self):
        # (u^4 g2, u^6 g3) has discriminant u^12 (g2^3 - 27 g3^2)
        rng = random.Random(6)
        for _ in range(10):
            u = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            g2 = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            g3 = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
            lhs = (u**4 * g2) ** 3 - 27 * (u**6 * g3) ** 2
            assert lhs == u**12 * (g2**3 - 27 * g3**2)

    def test_numeric_path(self, ctx50):
        curve = weierstrass_from_lambda(ctx50.real("0.25"))
        assert abs(curve.g2**3 - 27 * curve.g3**2 - curve.disc) < ctx50.real("1e-58")


class TestPeriods:
    def test_period_at_zero_is_pi(self, ctx50):
        assert period_classical(0, ctx50) == pi_reference(ctx50)

    def test_period_at_half(self, ctx50):
        expected = pi_reference(ctx50) * ctx50.real(F_HALF)
        assert abs(period_classical(ctx50.real("0.5"), ctx50) - expected) < ctx50.real("1e-48")

    def test_h1_at_half(self, ctx50):
        # the (2 lambda - 1) term vanishes: H1 = (pi/8) F2(1/2)
        pair = quasiperiod_bruns(ctx50.real("0.5"), ctx50)
        expected = pi_reference(ctx50) / 8 * legendre_F2(ctx50.real("0.5"), ctx50)
        assert abs(pair.h1 - expected) < ctx50.real("1e-55")

    def test_h1_at_minus_one(self, ctx50):
        pair = quasiperiod_bruns(ctx50.real(-1), ctx50)
        pi = pi_reference(ctx50)
        expected = pi * legendre_F(-1, ctx50) - pi * legendre_F2(-1, ctx50)
        assert abs(pair.h1 - expected) < ctx50.real("1e-55")

    def test_omega_h_product_is_pi_at_half(self, ctx50):
        pair = quasiperiod_bruns(ctx50.real("0.5"), ctx50)
        assert abs(pair.omega1 * pair.h1 - pi_reference(ctx50)) < ctx50.real("1e-45")

    def test_curve_periods_relations(self, ctx50):
        lam = ctx50.real("0.3")
        pair = quasiperiod_bruns(lam, ctx50)
        p1, q1 = pair.curve_periods(lam)
        assert p1 == 2 * pair.omega1
        assert abs(q1 - (2 * pair.h1 - (1 + lam) / 3 * p1)) < ctx50.real("1e-58")


class TestBrunsResiduals:
    @pytest.mark.parametrize("lam", ["0.01", "0.05", "0.3", "0.5"])
    def test_agm_derivative_against_mpmath(self, lam):
        # dOmega1/dlambda = (E - (1-m) K) / (m (1-m)), E and K from mpmath at 20 more digits
        ctx = ctx_new(100)
        lam = ctx.real(lam)
        with mpmath.workdps(ctx.working_digits + 20):
            m = mpmath.mpf(lam)  # so 1 - m is not rounded at ctx's precision
            expected = (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)) / (m * (1 - m))
        assert abs(legendre._d_omega1_agm(lam, ctx) - expected) < ctx.eps * expected

    @pytest.mark.parametrize("num", [5, 30, 50])
    def test_residuals_small(self, num):
        ctx = PrecisionCtx(48)  # 60 working digits
        res1, res2 = bruns_residuals(ctx.real(num) / 100, ctx)
        assert res1 < ctx.real("1e-50")
        assert res2 < ctx.real("1e-15")  # central-difference limited

    @pytest.mark.parametrize("num", [5, 25, 50])
    def test_first_residual_sees_a_wrong_f2(self, monkeypatch, num):
        # F2 off by 10^-12 relative must push res1 over the selftest's 10^-15;
        # quasiperiod_bruns imports legendre_F_F2 from hypergeometric when called
        right = hypergeometric.legendre_F_F2

        def wrong(lam, ctx):
            F, F2 = right(lam, ctx)
            return F, F2 * (1 + ctx.real("1e-12"))

        monkeypatch.setattr(hypergeometric, "legendre_F_F2", wrong)
        ctx = PrecisionCtx(48)
        res1, _ = bruns_residuals(ctx.real(num) / 100, ctx)
        assert res1 > ctx.real("1e-15")

    def test_singular_rejected(self, ctx50):
        with pytest.raises(ValueError):
            bruns_residuals(0, ctx50)


class TestHomothety:
    def test_sqrt_and_j_forms_match_period_normalization(self, ctx50):
        ratios = homothety_ratios(tau_point(_mpc(ctx50, 0, 2), ctx50), ctx50)
        assert abs(ratios[0] - 1) < ctx50.real("1e-45")
        assert abs(ratios[1] - 1) < ctx50.real("1e-45")

    def test_ratios_constant_across_tau(self, ctx50):
        at_2i = homothety_ratios(tau_point(_mpc(ctx50, 0, 2), ctx50), ctx50)
        at_3i = homothety_ratios(tau_point(_mpc(ctx50, 0, 3), ctx50), ctx50)
        for a, b in zip(at_2i, at_3i):
            assert abs(a - b) < ctx50.real("1e-45")

    def test_closed_form_twelfth_power_consistency(self, ctx50):
        # mu_closed^12 (lambda(1-lambda))^2 / Delta(tau) == (2^(1/3)/27)^12,
        # also where lambda is negative real (1 + 0.8i, 1 + 1.5i)
        expected = ctx50.real(2) ** 4 / ctx50.real(27) ** 12
        for re, im in [(0, 2), (1, "0.8"), (1, "1.5")]:
            t = tau_point(_mpc(ctx50, re, im), ctx50)
            _, _, mu_closed = homothety_mu(t, ctx50)
            lam = lambda_tau(t, ctx50)
            measured = mu_closed**12 * (lam * (1 - lam)) ** 2 / delta_tau(t, ctx50)
            assert abs(measured - expected) < ctx50.real("1e-55"), (re, im)

    def test_closed_form_ratio_at_2i(self, ctx50):
        _, _, closed = homothety_ratios(tau_point(_mpc(ctx50, 0, 2), ctx50), ctx50)
        expected = ctx50.mp.cbrt(4) / 27
        assert abs(closed - expected) < ctx50.real("1e-45")

    def test_no_warning_where_lambda_is_negative_real(self, ctx50):
        # lambda(1-lambda) < 0 at both points: the roots come from eta products
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for im in ("0.8", "1.5"):
                t = tau_point(_mpc(ctx50, 1, im), ctx50)
                assert all(ctx50.mp.isfinite(mu) for mu in homothety_mu(t, ctx50))


class TestPeriodIdentityChecks:
    @pytest.mark.parametrize("im", [2, 3])
    def test_around_infinity(self, ctx50, im):
        t = tau_point(_mpc(ctx50, 0, im), ctx50)
        report = check_theorem_period(t, ctx50)
        assert report.passed, report.summary_line()

    def test_constant_cancellation_at_lambda_zero(self, ctx50):
        # 2^(1/3) * 16^(-1/12) = 1, so both sides tend to pi as lambda -> 0
        mp = ctx50.mp
        c = mp.mpf(2) ** (mp.mpf(1) / 3) * mp.mpf(16) ** (-mp.mpf(1) / 12)
        assert abs(c - 1) < ctx50.eps * 10

    @pytest.mark.parametrize("denom", [2, 3])
    def test_around_zero(self, ctx50, denom):
        t = tau_point(_mpc(ctx50, 0, ctx50.real(1) / denom), ctx50)
        report = check_theorem_transform(t, ctx50)
        assert report.passed, report.summary_line()

    def test_around_zero_off_the_imaginary_axis(self):
        # lambda(1-lambda) is not in (0, 1/4] here: the principal sixth root
        # missed by a factor, the root from eta products does not
        ctx = ctx_new(40)
        report = check_theorem_transform(tau_point(_mpc(ctx, "-0.1", "0.3"), ctx), ctx)
        assert report.passed, report.summary_line()

    def test_checks_coincide_at_i(self, ctx50):
        # at tau = i both identities state the same equality (i/tau = 1)
        t = tau_point(_mpc(ctx50, 0, 1), ctx50)
        r1 = check_theorem_period(t, ctx50)
        r2 = check_theorem_transform(t, ctx50)
        assert r1.passed and r2.passed
        lhs1 = parse_complex(r1.lhs, ctx50)
        lhs2 = parse_complex(r2.lhs, ctx50)
        assert abs(lhs1 - lhs2) < ctx50.real("1e-45")

    @pytest.mark.parametrize("re, im", [(1, "0.3"), (1, "0.5"), (1, "0.8"), (1, 1), ("0.9", "0.5")])
    def test_around_one(self, re, im):
        # with (tau+1) for (tau-1) these read lhs/rhs = (tau+1)/(tau-1), 1-4i at 1+i/2
        ctx = ctx_new(40)
        report = check_theorem_around1(tau_point(_mpc(ctx, re, im), ctx), ctx)
        assert report.passed, report.summary_line()
        assert report.branch_flags == ()


class TestEtaRoots:
    @pytest.mark.parametrize("re, im", [(1, "0.5"), ("0.3", "1.2")])
    def test_powers_of_the_roots(self, ctx50, re, im):
        t = tau_point(_mpc(ctx50, re, im), ctx50)
        lam = lambda_tau(t, ctx50)
        disc_12, prod_6, sqrt_1ml, eta_tau = legendre._eta_roots(t, ctx50)
        tol = ctx50.real("1e-45")
        assert abs(prod_6 ** 6 - lam * (1 - lam)) < tol * abs(lam * (1 - lam))
        assert abs(disc_12 ** 12 - weierstrass_from_lambda(lam).disc) < tol * abs(disc_12 ** 12)
        assert abs(sqrt_1ml ** 2 - (1 - lam)) < tol * abs(1 - lam)
        assert eta_tau == eta(t, ctx50)

    def test_principal_at_2i(self, ctx50):
        # lambda(2i) is in (0, 1), where every principal root is the holomorphic one
        mp = ctx50.mp
        t = tau_point(_mpc(ctx50, 0, 2), ctx50)
        lam = lambda_tau(t, ctx50)
        principal = ((16 * (lam * (1 - lam)) ** 2) ** (mp.mpf(1) / 12),
                     (lam * (1 - lam)) ** (mp.mpf(1) / 6), mp.sqrt(1 - lam))
        for root, expected in zip(legendre._eta_roots(t, ctx50), principal):
            assert abs(root - expected) < ctx50.real("1e-45") * abs(expected)
