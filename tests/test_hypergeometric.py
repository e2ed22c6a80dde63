import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperpi import (
    HypParams,
    RegionError,
    hyp2f1,
    hyp_derivative,
    hyp_via_agm,
    legendre_F,
    legendre_F2,
    picard_fuchs_residual,
)
from hyperpi.hypergeometric import F2_PARAMS, F_PARAMS, _series, _term_count
from hyperpi.numerics import ctx_new

from _oracles import F_HALF, F_MINUS1, alternating_2f1_minus1, central_difference

# F, F2 and the Pfaff images the identities need; the image (1/2, 1/2; 1) of
# F_PARAMS is F_PARAMS itself
EXACT_PARAMS = [F_PARAMS, F2_PARAMS, HypParams(Fraction(3, 2), Fraction(1, 2), Fraction(2))]
EXACT_IDS = ["F", "F2", "pfaff-F2"]
EXACT_POINTS = [Fraction(1, 2), Fraction(1, 4), Fraction(-1), Fraction(-1, 3), Fraction(3, 4)]

# small rationals for random parameter sets; c is never 0 or a negative integer
small_fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
hyp_params = st.builds(
    HypParams, small_fractions, small_fractions, small_fractions.filter(lambda c: c.denominator > 1 or c > 0)
)
tiny_fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))
tiny_hyp_params = st.builds(
    HypParams, tiny_fractions, tiny_fractions, st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))
)


def _polar_point(ctx, modulus, angle, real):
    """An mpc of the given modulus and angle, or the mpf +-modulus when real."""
    if real:
        return ctx.real(repr(modulus if abs(angle) < cmath.pi / 2 else -modulus))
    z = cmath.rect(modulus, angle)
    return ctx.mp.mpc(repr(z.real), repr(z.imag))


def _against_mpmath(p, z, value, ctx):
    """|value - mpmath.hyp2f1| in units of ctx.eps * max(1, |2F1|)."""
    with mpmath.workprec(ctx.mp.prec + 30):
        a, b, c = (mpmath.mpf(x.numerator) / x.denominator for x in (p.a, p.b, p.c))
        oracle = mpmath.hyp2f1(a, b, c, mpmath.mpmathify(z))
        return abs(mpmath.mpmathify(value) - oracle) / (mpmath.mpf(ctx.eps) * max(1, abs(oracle)))


def _exact(x):
    """An mpf as the Fraction it is exactly."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.fixture(scope="module")
def ctx1000():
    return ctx_new(1000)


class TestParams:
    def test_rejects_nonpositive_integer_c(self):
        with pytest.raises(ValueError):
            HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(0))
        with pytest.raises(ValueError):
            HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(-2))

    def test_accepts_plain_ints(self):
        p = HypParams(1, 2, 3)
        assert p.c == Fraction(3)


class TestHyp2f1:
    def test_empty_series_at_zero(self, ctx50):
        assert hyp2f1(F_PARAMS, 0, ctx50) == 1

    def test_frozen_value_at_half(self, ctx50):
        # AGM oracle 1/agm(1, sqrt(1/2)), scratch, 50 digits
        v = hyp2f1(F_PARAMS, ctx50.real("0.5"), ctx50)
        assert abs(v - ctx50.real(F_HALF)) < ctx50.real("1e-48")

    def test_pfaff_value_at_minus_one(self, ctx50):
        v = hyp2f1(F_PARAMS, -1, ctx50)
        assert abs(v - ctx50.real(F_MINUS1)) < ctx50.real("1e-48")
        # relation to the z = 1/2 point through the Pfaff prefactor
        direct = hyp2f1(F_PARAMS, ctx50.real("0.5"), ctx50) / ctx50.mp.sqrt(2)
        assert abs(v - direct) < ctx50.real("1e-58")

    def test_pfaff_against_alternating_series_oracle(self, ctx50):
        assert abs(hyp2f1(F_PARAMS, -1, ctx50) - alternating_2f1_minus1(ctx50)) < ctx50.real("1e-20")

    @pytest.mark.parametrize("lam", ["-0.05", "-0.3", "-0.62", "-0.9"])
    def test_pfaff_consistent_with_direct_series(self, ctx50, lam):
        z = ctx50.real(lam)
        direct, _ = _series(F_PARAMS, z, ctx50)
        assert abs(hyp2f1(F_PARAMS, z, ctx50) - direct) < ctx50.real("1e-55")

    @pytest.mark.parametrize("x", ["0.3", "-0.7", "0.9"])
    def test_real_series_is_real_part_of_complex_series(self, ctx50, x):
        z = ctx50.real(x)
        value, n = _series(F2_PARAMS, z, ctx50)
        complex_value, complex_n = _series(F2_PARAMS, ctx50.mp.mpc(z, 0), ctx50)
        assert isinstance(value, ctx50.mp.mpf)
        assert value == complex_value.real and complex_value.imag == 0
        assert n == complex_n

    def test_wide_direct_region_against_agm(self, ctx50):
        z = ctx50.real("0.9")
        value, n_terms = _series(F_PARAMS, z, ctx50)
        assert abs(value - hyp_via_agm(z, ctx50)) < ctx50.real("1e-55")
        # |z| = 0.9 costs ~22 digits/term-decade: keep the count bounded
        assert n_terms < 25 * (ctx50.working_digits + 10)

    def test_region_errors(self, ctx50):
        with pytest.raises(RegionError):
            hyp2f1(F_PARAMS, 2, ctx50)  # outside both regions
        with pytest.raises(RegionError):
            hyp2f1(F_PARAMS, ctx50.real("0.95"), ctx50)  # beyond direct radius
        with pytest.raises(RegionError):
            hyp2f1(F_PARAMS, -30, ctx50)  # Pfaff image outside |w| <= 1/2
        with pytest.raises(RegionError):
            hyp2f1(F_PARAMS, Fraction(31, 32), ctx50)  # exact route, same regions

    def test_complex_argument(self, ctx50):
        z = ctx50.mp.mpc("0.2", "0.1")
        v = hyp2f1(F_PARAMS, z, ctx50)
        # conjugation symmetry of a real-coefficient series
        v_conj = hyp2f1(F_PARAMS, ctx50.mp.conj(z), ctx50)
        assert abs(ctx50.mp.conj(v) - v_conj) < ctx50.real("1e-58")


class TestExactRoute:
    """Fraction arguments: binary splitting against third-party mpmath.hyp2f1."""

    @pytest.mark.parametrize("digits", [50, 1000])
    @pytest.mark.parametrize("p", EXACT_PARAMS, ids=EXACT_IDS)
    @pytest.mark.parametrize("z", EXACT_POINTS, ids=str)
    def test_against_mpmath(self, request, digits, p, z):
        ctx = request.getfixturevalue(f"ctx{digits}")
        r = ctx.real
        oracle = ctx.mp.hyp2f1(r(p.a), r(p.b), r(p.c), r(z))
        # direct points agree to the last bit; at z = -1 the Pfaff
        # prefactor, an mpf power, adds one rounding
        assert abs(hyp2f1(p, z, ctx) - oracle) <= ctx.eps

    @pytest.mark.parametrize("p", EXACT_PARAMS, ids=EXACT_IDS)
    @pytest.mark.parametrize("z", EXACT_POINTS, ids=str)
    def test_agrees_with_mpf_route(self, ctx50, p, z):
        # both routes are within tail_tol of the exact sum before one final
        # rounding, so they differ by at most that rounding (they agree to
        # the last bit at every point here, also at 100, 300 and 1000 digits)
        assert abs(hyp2f1(p, z, ctx50) - hyp2f1(p, ctx50.real(z), ctx50)) <= ctx50.eps

    @pytest.mark.parametrize(
        "digits,z", [(50, Fraction(1, 2)), (50, Fraction(-1, 3)), (50, Fraction(3, 4)), (1000, Fraction(1, 2))]
    )
    def test_never_fewer_terms_than_mpf_route(self, request, digits, z):
        ctx = request.getfixturevalue(f"ctx{digits}")
        for p in EXACT_PARAMS:
            assert _term_count(p, z, ctx)[0] >= _series(p, ctx.real(z), ctx)[1]

    def test_terminating_series(self, ctx50):
        # 2F1(-2, 1/2; 1; z) = 1 - z + (3/8) z^2, which is 17/24 at z = 1/3
        p = HypParams(Fraction(-2), Fraction(1, 2), Fraction(1))
        assert abs(hyp2f1(p, Fraction(1, 3), ctx50) - ctx50.real(Fraction(17, 24))) <= ctx50.eps


class TestFixedPointRoute:
    """mpf and mpc arguments: the fixed-point series against third-party mpmath.hyp2f1."""

    # mpmath.hyp2f1 itself slows to seconds above |z| = 0.8 at 300 digits,
    # so the random points stop there; test_wide_direct_region_against_agm
    # covers |z| = 0.9
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=hyp_params,
        digits=st.integers(30, 300),
        modulus=st.floats(0, 0.8),
        angle=st.floats(-cmath.pi, cmath.pi),
        real=st.booleans(),
    )
    def test_direct_series_against_mpmath(self, p, digits, modulus, angle, real):
        ctx = ctx_new(digits)
        z = _polar_point(ctx, modulus, angle, real)
        value, _ = _series(p, z, ctx)
        assert _against_mpmath(p, z, value, ctx) <= 1

    # the Pfaff route rounds z/(z-1) and (1-z)^-a, and the value's
    # sensitivity to those roundings grows with the parameters, so a and b
    # stay in [-2, 2] and c in (0, 8]
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p=tiny_hyp_params,
        digits=st.integers(30, 300),
        x=st.floats(-1, -0.25),
        y=st.floats(-0.6, 0.6),
        real=st.booleans(),
    )
    def test_pfaff_route_against_mpmath(self, p, digits, x, y, real):
        ctx = ctx_new(digits)
        zf = complex(x, 0 if real else y)
        # Re z < 0, |z| > 1/2 and |z/(z-1)| <= 1/2: hyp2f1 takes the Pfaff route
        assume(abs(zf) > 0.51 and abs(zf / (zf - 1)) < 0.5)
        z = ctx.real(repr(x)) if real else ctx.mp.mpc(repr(x), repr(y))
        assert _against_mpmath(p, z, hyp2f1(p, z, ctx), ctx) <= 1

    @pytest.mark.parametrize("p", EXACT_PARAMS, ids=EXACT_IDS)
    @pytest.mark.parametrize("z", ["0.9", "-0.45", "0.3", Fraction(3, 4)], ids=str)
    def test_term_count_meets_tail_rule(self, ctx50, p, z):
        # exact rationals: the last term ratio is below rho = (1+|z|)/2 and
        # the geometric tail after the last term is below tail_tol
        if not isinstance(z, Fraction):
            z = ctx50.real(z)
        n, _ = _term_count(p, z, ctx50)
        zq = z if isinstance(z, Fraction) else _exact(z)
        ratios = [(p.a + k) * (p.b + k) / ((p.c + k) * (k + 1)) * zq for k in range(n)]
        rho = (1 + abs(zq)) / 2
        assert n >= 3 and abs(ratios[-1]) < rho
        # |term_n| rho / (1-rho) <= 10^-(working+5), in integers: a Fraction
        # would reduce the product of n ratios by a slow gcd
        bound = rho / (1 - rho)
        num = math.prod(r.numerator for r in ratios) * bound.numerator * 10 ** (ctx50.working_digits + 5)
        assert abs(num) <= math.prod(r.denominator for r in ratios) * bound.denominator


class TestDerivative:
    def test_leading_coefficient_at_zero(self, ctx50):
        assert hyp_derivative(F_PARAMS, 0, ctx50) == ctx50.real("0.25")

    def test_matches_f2_by_definition(self, ctx50):
        z = ctx50.real("0.5")
        assert hyp_derivative(F_PARAMS, z, ctx50) == legendre_F2(z, ctx50) / 4

    def test_against_central_differences(self, ctx50):
        z = ctx50.real("0.3")
        h = ctx50.real(10) ** (-(ctx50.working_digits // 3))
        fd = central_difference(lambda w: hyp2f1(F_PARAMS, w, ctx50), z, h)
        exact = hyp_derivative(F_PARAMS, z, ctx50)
        # central differences are h^2-limited: ~2/3 of working digits here
        assert abs(fd - exact) < ctx50.real(10) ** (-(ctx50.working_digits // 3))


class TestLegendreF:
    def test_values_at_zero(self, ctx50):
        assert legendre_F(0, ctx50) == 1
        assert legendre_F2(0, ctx50) == 1

    @pytest.mark.parametrize("seed", [0])
    def test_agm_equivalence_sampled(self, ctx50, seed):
        rng = random.Random(seed)
        for _ in range(20):
            lam = ctx50.real(repr(rng.uniform(0.005, 0.9)))
            assert abs(legendre_F(lam, ctx50) - hyp_via_agm(lam, ctx50)) < ctx50.real("1e-45")


class TestPicardFuchs:
    @pytest.mark.parametrize("num", range(5, 55, 5))
    def test_residual_on_grid(self, ctx50, num):
        lam = ctx50.real(num) / 100
        # contiguous-relation second derivative: residual is truncation-level
        assert picard_fuchs_residual(lam, ctx50) < ctx50.real(10) ** (-(ctx50.working_digits // 3))

    def test_singular_points_rejected(self, ctx50):
        with pytest.raises(ValueError):
            picard_fuchs_residual(0, ctx50)
        with pytest.raises(ValueError):
            picard_fuchs_residual(ctx50.real("0.6"), ctx50)


class TestHypViaAgm:
    def test_at_zero(self, ctx50):
        assert hyp_via_agm(0, ctx50) == 1

    def test_rejects_lambda_ge_one(self, ctx50):
        with pytest.raises(ValueError):
            hyp_via_agm(1, ctx50)
        with pytest.raises(ValueError):
            hyp_via_agm("1.5", ctx50)

    def test_negative_lambda_matches_pfaff(self, ctx50):
        assert abs(hyp_via_agm(-1, ctx50) - legendre_F(-1, ctx50)) < ctx50.real("1e-55")
