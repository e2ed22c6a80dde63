import math
import random
from fractions import Fraction

import mpmath
import pytest

from hyperpi import (
    IndeterminateFormError,
    ReductionError,
    TransformWord,
    ctx_new,
    delta_tau,
    delta_tau_eisenstein,
    eisenstein,
    eisenstein_all,
    eta,
    lambda_q_coeffs,
    lambda_tau,
    normalized_j,
    parse_complex,
    pi_reference,
    reduce_tau,
    s2,
    s2_bracket,
    tau_point,
)
from hyperpi import modular, suite
from hyperpi.modular import (
    _eisenstein_series,
    _eta_lambda_series,
    _eta_series,
    _euler,
    _lambda_series,
    _lambert_count,
    _pentagonal_count,
    _raw_point,
)

from _oracles import (
    ETA_I,
    LAM_2I,
    LAMBDA_X_COEFFS,
    e2_divisor_sum,
    eisenstein_theta_forms,
    eta_product,
    lambda_theta_quotient,
)


def _mpc(ctx, re, im):
    return ctx.mp.mpc(ctx.real(re), ctx.real(im))


def _assert_lambda_matches_oracle(lam, tau, digits, relative):
    expected = lambda_theta_quotient(tau, digits)
    with mpmath.workdps(digits + 40):
        assert abs(mpmath.mpc(lam) - expected) < mpmath.mpf(relative) * abs(expected)


class TestTauPoint:
    def test_rejects_lower_half_plane(self, ctx50):
        with pytest.raises(ValueError):
            tau_point(_mpc(ctx50, 0, -1), ctx50)
        with pytest.raises(ValueError):
            tau_point(1, ctx50)

    def test_x_squares_to_q(self, ctx50):
        t = tau_point(_mpc(ctx50, "0.3", "0.8"), ctx50)
        assert t.x * t.x == t.q

    def test_imaginary_axis_gives_real_nome(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 2), ctx50)
        assert t.q > 0
        assert abs(t.q - ctx50.mp.exp(-4 * pi_reference(ctx50))) < ctx50.eps

    def test_the_nome_is_that_of_tau0(self, ctx50):
        # 0.3 + 0.2i = -1/(tau0 - 2), tau0 = -0.31 + 1.54i
        t = tau_point(_mpc(ctx50, "0.3", "0.2"), ctx50)
        assert t.word.letters == (("T", -2), ("S", 1))
        assert abs(t.tau0 - (2 - 1 / t.tau)) < ctx50.eps * 10
        assert abs(t.x - ctx50.mp.expjpi(t.tau0)) < ctx50.eps

    def test_one_reduction_and_one_nome_per_point(self, ctx50, monkeypatch):
        # tau_point reduces and forms the nome of tau0; eta, the E_k, Delta
        # and lambda read both from the point
        calls = {"reduce_tau": 0, "_nome": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(modular, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(modular, name, counted)
        t = tau_point(_mpc(ctx50, "0.3", "0.2"), ctx50)
        for fn in (eta, eisenstein_all, delta_tau, lambda_tau):
            fn(t, ctx50)
        assert calls == {"reduce_tau": 1, "_nome": 1}


HALF_RE_TAU0 = [("0.5", "1.1"), ("-0.5", "0.9"), ("2.5", "0.87"), ("-1.5", "2")]  # Re(tau0) = +-1/2


class TestHalfIntegerNome:
    """At Re(tau0) = +-1/2 the nome x = +-i|x| has an exact zero real part,
    so q = x^2 has an exact zero imaginary part; the reduced points have
    Re(tau0) = -1/2 and the unreduced ones also 1/2 and 3/2."""

    @pytest.mark.parametrize("tau", HALF_RE_TAU0, ids="{0[0]}+{0[1]}i".format)
    def test_exact_zero_parts(self, ctx50, tau):
        for t in (tau_point(_mpc(ctx50, *tau), ctx50), _raw_point(_mpc(ctx50, *tau), ctx50)):
            assert t.tau0.real % 1 == 0.5 and t.x.real == 0 and t.q.imag == 0
            assert t.x * t.x == t.q

    @pytest.mark.parametrize("tau", HALF_RE_TAU0, ids="{0[0]}+{0[1]}i".format)
    def test_eta_lambda_delta_against_oracles(self, tau):
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, *tau), ctx)
        e4, e6 = eisenstein_theta_forms(t.tau, 300)
        with mpmath.workdps(340):
            expected = {eta: mpmath.eta(mpmath.mpc(t.tau)), lambda_tau: lambda_theta_quotient(t.tau, 300),
                        delta_tau: (2 * mpmath.pi) ** 12 * (e4**3 - e6**2) / 1728}
            for fn, value in expected.items():
                for point in (t, _raw_point(t.tau, ctx)):
                    error = abs(mpmath.mpmathify(fn(point, ctx)) - value)
                    assert error <= mpmath.mpf("1e-295") * max(1, abs(value)), fn.__name__


class TestPartsFarApart:
    """The exact integers of tau are as wide as the gap between its two
    parts; the Lambert pass reads q to its own bits, where a part far below
    them is 0."""

    def test_refused_before_the_integers_are_formed(self, ctx50):
        tau = ctx50.mp.mpc(ctx50.mp.ldexp(1, -2**40), 1)
        with pytest.raises(ReductionError, match="exact reduction of tau needs integers of at least 2"):
            tau_point(tau, ctx50)

    def test_a_million_digit_gap_reduces(self, ctx50):
        # 3.3-million-bit integers, converted to mpfs in linear time
        mp = ctx50.mp
        tau = mp.mpc(mp.mpf("1e-1000000"), 1)
        t = tau_point(tau, ctx50)
        assert t.word.letters == () and t.tau == tau and t.tau0 == tau
        assert abs(t.x - mp.exp(-pi_reference(ctx50))) < ctx50.eps

    @pytest.mark.parametrize("gap_bits", [400, 10**7, 2**80])
    def test_lambert_pass_at_the_larger_part(self, gap_bits):
        ctx = ctx_new(30)
        mp = ctx.mp
        q = mp.mpc("0.004", mp.ldexp(1, -gap_bits))
        assert _eisenstein_series(q, ctx) == _eisenstein_series(mp.mpc("0.004", 0), ctx)


class TestEta:
    def test_frozen_value_at_i(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 1), ctx50)
        assert abs(eta(t, ctx50) - ctx50.real(ETA_I)) < ctx50.real("1e-48")

    @pytest.mark.parametrize("tau", [(0, 1), ("0.3", "0.8"), (1, 2)])
    def test_pentagonal_series_vs_product(self, ctx50, tau):
        t = tau_point(_mpc(ctx50, *tau), ctx50)
        assert abs(eta(t, ctx50) - eta_product(_raw_point(t.tau, ctx50), ctx50)) < ctx50.real("1e-58")

    def test_translation_equation_at_2i(self, ctx50):
        mp = ctx50.mp
        pi = pi_reference(ctx50)
        t = tau_point(_mpc(ctx50, 0, 2), ctx50)
        t_shift = tau_point(_mpc(ctx50, 1, 2), ctx50)
        expected = mp.exp(mp.mpc(0, pi / 12)) * eta(t, ctx50)
        assert abs(eta(t_shift, ctx50) - expected) < ctx50.real("1e-55")

    def test_inversion_equation_at_1_plus_i(self, ctx50):
        mp = ctx50.mp
        tau = _mpc(ctx50, 1, 1)
        lhs = eta(tau_point(-1 / tau, ctx50), ctx50)
        rhs = eta(tau_point(tau, ctx50), ctx50) * mp.sqrt(mp.mpc(0, -1) * tau)
        assert abs(lhs - rhs) < ctx50.real("1e-55")


class TestEisenstein:
    def test_e2_at_i_is_3_over_pi(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 1), ctx50)
        assert abs(eisenstein(2, t, ctx50) - 3 / pi_reference(ctx50)) < ctx50.real("1e-45")

    def test_e6_vanishes_at_i(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 1), ctx50)
        assert abs(eisenstein(6, t, ctx50)) < ctx50.real("1e-55")

    def test_e2_is_periodic(self, ctx50):
        a = eisenstein(2, tau_point(_mpc(ctx50, 0, 1), ctx50), ctx50)
        b = eisenstein(2, tau_point(_mpc(ctx50, 1, 1), ctx50), ctx50)
        assert abs(a - b) < ctx50.real("1e-55")

    def test_quasi_modularity(self, ctx50):
        # E2(-1/tau) = tau^2 E2(tau) - 6 i tau / pi
        rng = random.Random(3)
        pi = pi_reference(ctx50)
        for _ in range(5):
            tau = _mpc(ctx50, repr(rng.uniform(-1, 1)), repr(rng.uniform(0.6, 3)))
            lhs = eisenstein(2, tau_point(-1 / tau, ctx50), ctx50)
            rhs = tau**2 * eisenstein(2, tau_point(tau, ctx50), ctx50) - 6 * ctx50.mp.mpc(0, 1) * tau / pi
            assert abs(lhs - rhs) < ctx50.real("1e-45")

    def test_bad_weight_rejected(self, ctx50):
        with pytest.raises(ValueError):
            eisenstein(8, tau_point(_mpc(ctx50, 0, 1), ctx50), ctx50)


# At Im tau = 1/4, |q| = e^(-pi/2) and a Lambert pass at tau itself is far
# longer than any at a reduced point; Re tau = 0 and 1 give a real q.
EISENSTEIN_POINTS = [(0, "0.25"), (1, "0.25"), ("0.3", "0.25"), ("-0.5", "0.25"), (0, 1),
                     (1, "1.5"), ("-0.7", "1.3"), ("0.123", 2)]


def _assert_matches(value, expected, ctx):
    # q = e^(2 pi i tau) is rounded at working precision before the sum, which
    # moves E_k by a few eps at Im tau = 1/4; 1000 eps leaves room for that
    with mpmath.workdps(2 * ctx.working_digits):
        error = abs(mpmath.mpc(value) - expected)
        assert error <= mpmath.mpf(10) ** (3 - ctx.working_digits) * max(1, abs(expected))


class TestEisensteinKernel:
    """The fixed-point Lambert pass at 300 digits, summed at tau itself and
    through the reduction, against oracles outside it, and its stated tail
    bound."""

    @pytest.mark.parametrize("tau", EISENSTEIN_POINTS)
    def test_e4_e6_against_theta_forms(self, tau):
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, *tau), ctx)
        e4, e6 = eisenstein_theta_forms(t.tau, 300)
        for values in (_eisenstein_series(_raw_point(t.tau, ctx).q, ctx), eisenstein_all(t, ctx)):
            _assert_matches(values[1], e4, ctx)
            _assert_matches(values[2], e6, ctx)

    @pytest.mark.parametrize("tau", EISENSTEIN_POINTS)
    def test_e2_against_divisor_sum(self, tau):
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, *tau), ctx)
        e2 = e2_divisor_sum(t.tau, 300)
        _assert_matches(_eisenstein_series(_raw_point(t.tau, ctx).q, ctx)[0], e2, ctx)
        _assert_matches(eisenstein(2, t, ctx), e2, ctx)

    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("tau", ["0.6+0.02095i", "0.14286+0.01068i", "0.18182+0.004328i"])
    def test_e2_keeps_precision_where_its_terms_cancel(self, digits, tau):
        # near zeros of E2 whose reduced points have |c tau0 + d|^2 from 90
        # to 320, where (c tau0 + d)^2 E2(tau0) and 6c (c tau0 + d)/(pi i)
        # cancel to |E2| < 1 and would cost 2 of the working digits
        ctx = ctx_new(digits)
        t = tau_point(parse_complex(tau, ctx), ctx)
        with mpmath.workdps(2 * ctx.working_digits):
            expected = e2_divisor_sum(t.tau, digits + 20)
            error = abs(mpmath.mpc(eisenstein(2, t, ctx)) - expected)
            assert error <= 10 * mpmath.mpf(10) ** -ctx.working_digits * max(1, abs(expected))

    @pytest.mark.parametrize("re", [0, 1, -1])
    def test_real_nome_gives_real_values(self, re):
        ctx = ctx_new(300)
        for value in eisenstein_all(tau_point(_mpc(ctx, re, "0.25"), ctx), ctx):
            assert isinstance(value, ctx.mp.mpf)

    def test_generic_nome_gives_complex_values(self):
        ctx = ctx_new(300)
        for value in eisenstein_all(tau_point(_mpc(ctx, "0.3", "0.25"), ctx), ctx):
            assert isinstance(value, ctx.mp.mpc) and value.imag != 0

    @pytest.mark.parametrize("re", [0, "0.3"])
    def test_nome_below_float_range(self, ctx50, re):
        # |q| = e^(-2 pi 10^400): its exponent does not fit a float
        t = tau_point(_mpc(ctx50, re, "1e400"), ctx50)
        for value in eisenstein_all(t, ctx50):
            assert abs(value - 1) < ctx50.tail_tol

    @pytest.mark.parametrize("digits", [30, 300])
    @pytest.mark.parametrize("im", ["0.25", "0.6", "2"])
    def test_stated_tail_bound_covers_true_tail(self, digits, im):
        # the bound (N+1)^(k-1) r^(N+1) / ((1-r)(1-rho)) against
        # sum_(n>N) n^(k-1) |q^n / (1 - q^n)|, both at twice the precision
        ctx = ctx_new(digits)
        t = _raw_point(_mpc(ctx, "0.3", im), ctx)
        with mpmath.workdps(2 * ctx.working_digits):
            q = mpmath.mpc(t.q)
            r = abs(q)
            n_last = _lambert_count(float(mpmath.log(r)), ctx)
            assert n_last >= 5 / -mpmath.log(r)
            for k, c in ((2, -24), (4, 240), (6, -504)):
                rho = mpmath.mpf(n_last + 2) ** (k - 1) / mpmath.mpf(n_last + 1) ** (k - 1) * r
                assert rho < 1
                bound = mpmath.mpf(n_last + 1) ** (k - 1) * r ** (n_last + 1) / ((1 - r) * (1 - rho))
                assert abs(c) * bound <= mpmath.mpf(10) ** -(ctx.working_digits + 5) / 2
                tail, n, qn = mpmath.mpf(0), n_last + 1, q ** (n_last + 1)
                while True:
                    term = n ** (k - 1) * abs(qn / (1 - qn))
                    tail += term
                    if term < tail * mpmath.eps:
                        break
                    n, qn = n + 1, qn * q
                assert tail <= bound

    @pytest.mark.parametrize("tau", [(0, 2), ("-0.7", "1.3"), (1, "0.8")], ids=["tau0", "tau2", "tau3"])
    def test_s2_bitwise_equals_its_parts(self, tau):
        # tau0 = 2i, 0.3+1.3i and 1.25i: here summing s2 at tau0 and mapping
        # its parts back to tau round alike
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, *tau), ctx)
        parts = eisenstein(4, t, ctx) / eisenstein(6, t, ctx) * s2_bracket(t, ctx)
        assert s2(t, ctx) == parts

    def test_s2_equals_its_parts_off_the_reduced_point(self):
        # c = 1: s2 is summed at tau0, its parts are mapped back to tau
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, "0.3", "0.25"), ctx)
        value = s2(t, ctx)
        parts = eisenstein(4, t, ctx) / eisenstein(6, t, ctx) * s2_bracket(t, ctx)
        assert abs(value - parts) <= ctx.real("1e-295") * max(1, abs(value))


class TestDelta:
    def test_two_routes_agree_at_2i(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 2), ctx50)
        a = delta_tau(t, ctx50)
        b = delta_tau_eisenstein(t, ctx50)
        assert abs(a - b) < ctx50.real("1e-50") * abs(a)

    def test_periodicity_at_i(self, ctx50):
        a = delta_tau(tau_point(_mpc(ctx50, 0, 1), ctx50), ctx50)
        b = delta_tau(tau_point(_mpc(ctx50, 1, 1), ctx50), ctx50)
        assert abs(a - b) < ctx50.real("1e-50") * abs(a)

    def test_real_where_the_nome_is_real(self, ctx50):
        # q is real at integer Re(tau), and so is Delta = (2 pi)^12 q P(q)^24
        a = delta_tau(tau_point(_mpc(ctx50, 1, "0.8"), ctx50), ctx50)
        b = delta_tau(tau_point(_mpc(ctx50, 0, "0.8"), ctx50), ctx50)
        assert ctx50.complex(a).imag == 0
        assert a == b

    @pytest.mark.parametrize("tau", [(0, 1), ("0.4", "0.7"), (0, 3)])
    def test_nonvanishing(self, ctx50, tau):
        assert abs(delta_tau(tau_point(_mpc(ctx50, *tau), ctx50), ctx50)) > 0


class TestLambda:
    def test_value_at_i(self, ctx50):
        lam = lambda_tau(tau_point(_mpc(ctx50, 0, 1), ctx50), ctx50)
        assert abs(lam - ctx50.real("0.5")) < ctx50.real("1e-55")

    def test_frozen_value_at_2i(self, ctx50):
        lam = lambda_tau(tau_point(_mpc(ctx50, 0, 2), ctx50), ctx50)
        assert abs(lam - ctx50.real(LAM_2I)) < ctx50.real("1e-48")

    def test_eta_quotient_matches_x_expansion_at_2i(self, ctx50):
        # coefficients from exact integer series arithmetic; x = e^(-2 pi),
        # so the 13th term caps agreement near |c13| x^13 ~ 1e-28
        t = tau_point(_mpc(ctx50, 0, 2), ctx50)
        prefix = sum(c * t.x ** (k + 1) for k, c in enumerate(LAMBDA_X_COEFFS))
        assert abs(lambda_tau(t, ctx50) - prefix) < ctx50.real("1e-27")

    def test_seventy_exact_coefficients_at_4i(self):
        # x = e^(-4 pi) ~ 3.5e-6, so the omitted x^70 term is below 1e-360
        ctx = ctx_new(300)
        t = tau_point(_mpc(ctx, 0, 4), ctx)
        prefix = sum(c * t.x ** (k + 1) for k, c in enumerate(lambda_q_coeffs(69)))
        assert abs(lambda_tau(t, ctx) - prefix) < ctx.real("1e-295")

    @pytest.mark.parametrize("digits", [50, 300])
    def test_matches_theta_quotient(self, digits):
        ctx = ctx_new(digits)
        rng = random.Random(11)
        points = [(rng.uniform(-1, 1), rng.uniform(0.5, 3)) for _ in range(6)]
        points += [(re, rng.uniform(0.5, 3)) for re in (0, 1, -1)]
        for re, im in points:
            t = tau_point(_mpc(ctx, repr(re), repr(im)), ctx)
            _assert_lambda_matches_oracle(lambda_tau(t, ctx), t.tau, digits, f"1e-{digits}")


class TestLambdaCoeffs:
    def test_prefix(self):
        assert lambda_q_coeffs(3) == [16, -128, 704]

    def test_single(self):
        assert lambda_q_coeffs(1) == [16]

    def test_constant_term_vanishes(self, ctx50):
        # the list starts at x^1: at x = e^(-40 pi), lambda / x is 16 to
        # within 128 x, where a constant term would dominate
        t = tau_point(_mpc(ctx50, 0, 40), ctx50)
        assert abs(lambda_tau(t, ctx50) / t.x - lambda_q_coeffs(1)[0]) < ctx50.real("1e-50")

    def test_frozen_twelve(self):
        assert lambda_q_coeffs(12) == LAMBDA_X_COEFFS

    def test_empty(self):
        assert lambda_q_coeffs(0) == []


class TestLambdaReduced:
    def test_inversion_to_3i(self, ctx50):
        third = ctx50.real(1) / 3
        lhs = lambda_tau(tau_point(_mpc(ctx50, 0, third), ctx50), ctx50)
        rhs = 1 - lambda_tau(tau_point(_mpc(ctx50, 0, 3), ctx50), ctx50)
        assert abs(lhs - rhs) < ctx50.real("1e-55")

    def test_agrees_with_direct_in_range(self, ctx50):
        tau = _mpc(ctx50, 1, 1)
        lam = lambda_tau(tau_point(tau, ctx50), ctx50)
        assert abs(lam - _lambda_series(_raw_point(tau, ctx50), ctx50)) < ctx50.real("1e-55")

    def test_near_zero_tends_to_one(self, ctx50):
        lam = lambda_tau(tau_point(_mpc(ctx50, 0, "0.125"), ctx50), ctx50)
        assert abs(lam - 1) < ctx50.real("1e-9")
        assert lam != 1

    def test_table_limit_at_5i(self, ctx50):
        lam = lambda_tau(tau_point(_mpc(ctx50, 0, 5), ctx50), ctx50)
        bound = 16 * ctx50.mp.exp(-5 * pi_reference(ctx50)) * ctx50.real("1.1")
        assert abs(lam) < bound

    def test_word_reproduces_tau(self, ctx50):
        rng = random.Random(5)
        points = [(repr(rng.uniform(-2, 2)), repr(rng.uniform(0.05, 0.45))) for _ in range(8)]
        points += [("1e30", "0.3"), ("0.3", "1e-30"), ("-7.25", "1e-12")]
        for re, im in points:
            tau = _mpc(ctx50, re, im)
            t = tau_point(tau, ctx50)
            assert abs(t.tau0.real) <= 0.5 and abs(t.tau0) >= 1 - ctx50.eps
            a, b, c, d = t.word.matrix()
            assert a * d - b * c == 1
            moebius = (a * t.tau0 + b) / (c * t.tau0 + d)
            assert abs(moebius - tau) < ctx50.real("1e-50") * abs(tau)

    def test_huge_shift_is_one_run(self, ctx50):
        t = tau_point(_mpc(ctx50, "1e30", 2), ctx50)
        assert t.word.letters == (("T", 10**30),)
        assert t.tau0 == _mpc(ctx50, 0, 2)

    def test_reduced_point_is_returned_unchanged(self, ctx50):
        # tau = (3 + 20i)/10, exactly
        (re, im, den), word = reduce_tau(3, 20, 10)
        assert word == TransformWord(()) and (Fraction(re, den), Fraction(im, den)) == (Fraction(3, 10), 2)
        t = tau_point(_mpc(ctx50, "0.3", 2), ctx50)
        assert t.word == TransformWord(()) and t.tau0 == t.tau

    def test_malformed_run_rejected(self):
        for letters in ([("T^-1", 1)], [("S", 0.5)]):
            with pytest.raises(ValueError):
                TransformWord(tuple(letters))

    def test_step_cap_raises(self, ctx50, monkeypatch):
        monkeypatch.setattr(modular, "MAX_INVERSIONS", 0)
        with pytest.raises(ReductionError):
            tau_point(_mpc(ctx50, 0, "0.1"), ctx50)

    @pytest.mark.parametrize(
        "tau",
        [
            # |lambda| ~ 1.45e43, reached through the word T^4 S T
            pytest.param("0.996710+0.030397i", id="shallow"),
            # |lambda| ~ 3.6e223, reached through the word T^38 S T
            pytest.param("0.998663+0.005760i", id="deep"),
        ],
    )
    def test_full_precision_at_cusp_one(self, tau):
        ctx = ctx_new(300)
        t = tau_point(parse_complex(tau, ctx), ctx)
        _assert_lambda_matches_oracle(lambda_tau(t, ctx), t.tau, 300, "1e-295")

    @pytest.mark.parametrize("seed", [1])
    def test_functional_equations(self, ctx50, seed):
        # the series at each point, as the reduction would map all three
        # points to the same tau0
        rng = random.Random(seed)
        for _ in range(5):
            tau = _mpc(ctx50, repr(rng.uniform(-1, 1)), repr(rng.uniform(0.6, 3)))
            lam = _lambda_series(_raw_point(tau, ctx50), ctx50)
            shift = _lambda_series(_raw_point(tau + 1, ctx50), ctx50)
            assert abs(shift - lam / (lam - 1)) < ctx50.real("1e-45")
            inv = _lambda_series(_raw_point(-1 / tau, ctx50), ctx50)
            assert abs(inv - (1 - lam)) < ctx50.real("1e-45")

    def test_suite_reports_sum_the_series_at_both_points(self, monkeypatch):
        # each eta and lambda functional-equation report evaluates the series
        # at tau and at tau+1 or -1/tau, not the law against itself; one call
        # sums eta and lambda at one point
        assert suite._eta_lambda_series is modular._eta_lambda_series
        points = []

        def record(t, ctx, _fn=suite._eta_lambda_series):
            points.append(t.tau)
            return _fn(t, ctx)
        monkeypatch.setattr(suite, "_eta_lambda_series", record)
        suite.functional_equation_reports(30, seed=0)
        bases = [tau for tau in points if tau + 1 in points and -1 / tau in points]
        assert len(points) == 3 * suite.FUNCTIONAL_EQUATION_POINTS
        assert len(bases) == suite.FUNCTIONAL_EQUATION_POINTS


def _one_sided_euler(y, ctx):
    """P(y) alone, summed term by term: the reference for the three-pass
    product below."""
    total = ctx.mp.mpf(1)
    for n in range(1, _pentagonal_count(y, ctx) + 1):
        term = y ** (n * (3 * n - 1) // 2) + y ** (n * (3 * n + 1) // 2)
        total = total - term if n % 2 else total + term
    return total


def _three_pass_lambda(t, ctx):
    """lambda(tau0) = 16 x P(x)^8 P(x^4)^16 / P(x^2)^24, one pass at each of
    x, x^2 and x^4: the product before the identity P(x) P(-x) = P(x^2)^3 / P(x^4)."""
    x, q = t.x, t.q
    return 16 * x * _one_sided_euler(x, ctx) ** 8 * _one_sided_euler(q * q, ctx) ** 16 / _one_sided_euler(q, ctx) ** 24


def _seeded_nomes(seed, count):
    """count seeded y with |y| <= 0.4, half of them real, the rest complex."""
    rng = random.Random(seed)
    points = []
    for k in range(count):
        r, angle = rng.uniform(0.01, 0.4), rng.uniform(-3.14, 3.14)
        if k % 2:
            points.append((repr(r * math.cos(angle)), repr(r * math.sin(angle))))
        else:
            points.append((repr(r if k % 4 else -r), "0"))
    return points


@pytest.mark.parametrize("digits", [30, 100, 300])
class TestPentagonalPasses:
    def test_both_sums_against_q_pochhammer(self, digits):
        ctx = ctx_new(digits)
        for re, im in _seeded_nomes(digits, 8) + [("0.4", "0"), ("-0.4", "0"), ("0", "0.4"), ("1e-400", "0")]:
            y = _mpc(ctx, re, im) if im != "0" else ctx.real(re)
            plus, minus = _euler(y, ctx)
            with mpmath.workdps(digits + 40):
                for value, at in ((plus, y), (minus, -y)):
                    assert abs(mpmath.mpmathify(value) - mpmath.qp(at)) < mpmath.mpf(10) ** (3 - ctx.working_digits)

    def test_two_passes_against_three(self, digits):
        ctx = ctx_new(digits)
        rng = random.Random(digits)
        taus = [_mpc(ctx, repr(rng.uniform(-1, 1)), repr(rng.uniform(0.6, 3))) for _ in range(4)]
        taus += [_mpc(ctx, "0.5", "1.1"), _mpc(ctx, "-0.5", "0.87"), _mpc(ctx, 0, 1)]
        for tau in taus:
            for t in (tau_point(tau, ctx), _raw_point(tau, ctx)):
                expected = _three_pass_lambda(t, ctx)
                _assert_relative(_lambda_series(t, ctx), expected, ctx)
        for tau in taus[:3]:
            t = _raw_point(tau, ctx)
            _assert_lambda_matches_oracle(_lambda_series(t, ctx), t.tau, digits, f"1e-{digits}")

    def test_eta_and_lambda_share_a_point(self, digits):
        # the law checks' per-point sums are eta's and lambda's own series, bit for bit
        ctx = ctx_new(digits)
        rng = random.Random(digits + 2)
        for _ in range(3):
            t = _raw_point(_mpc(ctx, repr(rng.uniform(-1, 1)), repr(rng.uniform(0.6, 3))), ctx)
            assert _eta_lambda_series(t, ctx) == (_eta_series(t, ctx), _lambda_series(t, ctx))


# Points near the real axis, where the series at tau itself would need
# thousands of terms: each function goes through the reduction.
NEAR_AXIS = [(re, im) for im in ("0.2", "0.05", "0.01") for re in (0, "0.3", "-0.45")]


def _assert_relative(value, expected, ctx):
    with mpmath.workdps(2 * ctx.working_digits):
        assert abs(mpmath.mpc(value) - expected) <= mpmath.mpf(10) ** (3 - ctx.working_digits) * abs(expected)


@pytest.mark.parametrize("digits", [50, 300])
@pytest.mark.parametrize("tau", NEAR_AXIS)
class TestNearRealAxis:
    def test_eta_against_mpmath(self, digits, tau):
        ctx = ctx_new(digits)
        t = tau_point(_mpc(ctx, *tau), ctx)
        with mpmath.workdps(digits + 40):
            _assert_relative(eta(t, ctx), mpmath.eta(mpmath.mpc(t.tau)), ctx)

    def test_delta_against_q_pochhammer(self, digits, tau):
        ctx = ctx_new(digits)
        t = tau_point(_mpc(ctx, *tau), ctx)
        with mpmath.workdps(digits + 40):
            q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(t.tau))
            _assert_relative(delta_tau(t, ctx), (2 * mpmath.pi) ** 12 * q * mpmath.qp(q) ** 24, ctx)

    def test_lambda_against_theta_quotient(self, digits, tau):
        ctx = ctx_new(digits)
        t = tau_point(_mpc(ctx, *tau), ctx)
        _assert_relative(lambda_tau(t, ctx), lambda_theta_quotient(t.tau, digits), ctx)

    def test_e4_e6_against_theta_forms(self, digits, tau):
        ctx = ctx_new(digits)
        t = tau_point(_mpc(ctx, *tau), ctx)
        _, e4, e6 = eisenstein_all(t, ctx)
        expected = eisenstein_theta_forms(t.tau, digits)
        _assert_matches(e4, expected[0], ctx)
        _assert_matches(e6, expected[1], ctx)

    def test_e2_against_divisor_sum(self, digits, tau):
        ctx = ctx_new(digits)
        t = tau_point(_mpc(ctx, *tau), ctx)
        _assert_matches(eisenstein(2, t, ctx), e2_divisor_sum(t.tau, digits), ctx)


class TestS2:
    def test_bracket_vanishes_at_i(self, ctx50):
        t = tau_point(_mpc(ctx50, 0, 1), ctx50)
        assert abs(s2_bracket(t, ctx50)) < ctx50.real("1e-45")

    def test_indeterminate_at_i(self, ctx50):
        with pytest.raises(IndeterminateFormError):
            s2(tau_point(_mpc(ctx50, 0, 1), ctx50), ctx50)

    def test_finite_at_2i(self, ctx50):
        value = s2(tau_point(_mpc(ctx50, 0, 2), ctx50), ctx50)
        assert ctx50.real("0.5") < value < ctx50.real("0.55")

    @pytest.mark.parametrize("seed", [1])
    def test_weight_laws(self, ctx50, seed):
        # s2 has weight 0 and its bracket weight 2, with the series summed at
        # each point itself and through the reduction
        rng = random.Random(seed)
        for point in (_raw_point, tau_point) * 5:
            tau = _mpc(ctx50, repr(rng.uniform(-1, 1)), repr(rng.uniform(0.6, 3)))
            t, shifted, inverted = (point(w, ctx50) for w in (tau, tau + 1, -1 / tau))
            value = s2(t, ctx50)
            assert abs(s2(shifted, ctx50) - value) < ctx50.real("1e-45")
            assert abs(s2(inverted, ctx50) - value) < ctx50.real("1e-45")
            assert abs(s2_bracket(inverted, ctx50) - tau**2 * s2_bracket(t, ctx50)) < ctx50.real("1e-45")


class TestNormalizedJ:
    @pytest.mark.parametrize("lam", [Fraction(1, 2), -1, 2])
    def test_ramification_values_exact(self, lam):
        assert normalized_j(lam) == 1

    def test_rejects_degenerate(self, ctx50):
        for bad in (0, 1):
            with pytest.raises(ValueError):
                normalized_j(bad)
            with pytest.raises(ValueError):
                normalized_j(ctx50.real(bad))

    def test_six_fold_orbit(self, ctx50):
        rng = random.Random(9)
        for _ in range(6):
            lam = _mpc(ctx50, repr(rng.uniform(-2, 2)), repr(rng.uniform(0.1, 2)))
            j = normalized_j(lam)
            orbit = [1 - lam, 1 / lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam]
            for image in orbit:
                assert abs(normalized_j(image) - j) < ctx50.real("1e-40") * max(1, abs(j))
