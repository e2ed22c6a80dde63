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
from hyperpi.hypergeometric import F2_PARAMS, F_PARAMS, _BLOCK, _block, _plan, _series, legendre_F_F2
from hyperpi.numerics import ctx_new, fixed_point, log_abs

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
    """An mpf as the Fraction it is exactly (man_exp drops the sign)."""
    man, exp = x.man_exp
    return (-1) ** x._mpf_[0] * Fraction(man) * Fraction(2) ** exp


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
        direct = _series(F_PARAMS, z, ctx50)[0]
        assert abs(hyp2f1(F_PARAMS, z, ctx50) - direct) < ctx50.real("1e-55")

    @pytest.mark.parametrize("x", ["0.3", "-0.7", "0.9"])
    def test_real_series_is_real_part_of_complex_series(self, ctx50, x):
        z = ctx50.real(x)
        value, deriv, n = _series(F2_PARAMS, z, ctx50)
        complex_value, complex_deriv, complex_n = _series(F2_PARAMS, ctx50.mp.mpc(z, 0), ctx50)
        assert isinstance(value, ctx50.mp.mpf) and isinstance(deriv, ctx50.mp.mpf)
        assert value == complex_value.real and complex_value.imag == 0
        assert deriv == complex_deriv.real and complex_deriv.imag == 0
        assert n == complex_n

    def test_wide_direct_region_against_agm(self, ctx50):
        z = ctx50.real("0.9")
        value, _, n_terms = _series(F_PARAMS, z, ctx50)
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
    """Fraction arguments, summed exactly by the fixed-point kernel, against
    third-party mpmath.hyp2f1."""

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
        # the Fraction and its rounded mpf are both within tail_tol of their
        # exact sums before one final rounding, so they differ by at most
        # that rounding and the rounding of z
        assert abs(hyp2f1(p, z, ctx50) - hyp2f1(p, ctx50.real(z), ctx50)) <= ctx50.eps

    @pytest.mark.parametrize(
        "digits,z", [(50, Fraction(1, 2)), (50, Fraction(-1, 3)), (50, Fraction(3, 4)), (1000, Fraction(1, 2))]
    )
    def test_never_fewer_terms_than_mpf_route(self, request, digits, z):
        ctx = request.getfixturevalue(f"ctx{digits}")
        for p in EXACT_PARAMS:
            assert _series(p, z, ctx)[-1] >= _series(p, ctx.real(z), ctx)[-1]

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
        value = _series(p, z, ctx)[0]
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
        # exact rationals on the derivative series _plan counts: from its
        # last counted term t'_N (N = n - 1) on, the term ratio stays below
        # rho = (1+|z|)/2, and the geometric tail after t'_N is below tail_tol
        if not isinstance(z, Fraction):
            z = ctx50.real(z)
        zq = z if isinstance(z, Fraction) else _exact(z)
        n, _ = _plan(p, math.log(abs(zq)), ctx50)
        q = p.shifted()
        ratios = [(q.a + k) * (q.b + k) / ((q.c + k) * (k + 1)) * zq for k in range(n + 100)]
        rho = (1 + abs(zq)) / 2
        assert n >= 4 and all(abs(r) < rho for r in ratios[n - 2:])
        # |t'_N| rho / (1-rho) <= 10^-(working+5), in integers: a Fraction
        # would reduce the product of N ratios by a slow gcd
        bound = rho / (1 - rho)
        head = ratios[:n - 1]
        num = math.prod(r.numerator for r in head) * bound.numerator * 10 ** (ctx50.working_digits + 5)
        assert abs(num) <= math.prod(r.denominator for r in head) * bound.denominator

    @pytest.mark.parametrize("digits,plan", [(1000, (3395, 3422)), (2000, (6720, 6751)), (10000, (33296, 33333))])
    def test_pi_engine_plan_is_pinned(self, digits, plan):
        # the (terms, fixed-point bits) of F(1/2), the series both pi engines sum
        assert _plan(F_PARAMS, math.log(Fraction(1, 2)), ctx_new(digits)) == plan


class TestTinyArgument:
    """|z| far below every tolerance: the guard bits do not grow as |z| falls,
    and F = F2 = 1 to working precision."""

    @pytest.mark.parametrize("log10_az", [-30, -10**6])
    def test_plan_bits_no_more_than_at_half(self, ctx30, log10_az):
        bits = _plan(F_PARAMS, log10_az * math.log(10), ctx30)[1]
        assert bits <= _plan(F_PARAMS, math.log(Fraction(1, 2)), ctx30)[1]

    @pytest.mark.parametrize("spec", ["1e-1000000", "-1e-1000000", ("1e-1000000", "1e-1000000"), "2^-2^80"], ids=str)
    def test_F_and_F2_are_one(self, ctx30, spec):
        mp = ctx30.mp
        if spec == "2^-2^80":
            lam = mp.ldexp(mp.mpf(1), -2**80)  # log|lambda| = -8.4e23 as a float
        else:
            lam = mp.mpc(*spec) if isinstance(spec, tuple) else mp.mpf(spec)
        F, F2 = legendre_F_F2(lam, ctx30)
        assert abs(F - 1) <= ctx30.eps and abs(F2 - 1) <= ctx30.eps


class TestPartsFarApart:
    """_series reads z to 2^-2bits, so a part of z far below it is 0 and no
    integer is as wide as the gap; one within it is summed."""

    @pytest.mark.parametrize("p", [F_PARAMS, F2_PARAMS], ids=["F", "F2"])
    @pytest.mark.parametrize("gap_bits", [400, 10**7, 2**80])
    @pytest.mark.parametrize("minor_is_re", [True, False], ids=["tiny_re", "tiny_im"])
    def test_sum_at_the_larger_part(self, ctx30, p, gap_bits, minor_is_re):
        mp = ctx30.mp
        tiny, major = mp.ldexp(mp.mpf(3), -gap_bits), mp.mpf("0.4")
        z = mp.mpc(tiny, major) if minor_is_re else mp.mpc(major, tiny)
        at_major = mp.mpc(0, major) if minor_is_re else mp.mpc(major, 0)
        assert _series(p, z, ctx30) == _series(p, at_major, ctx30)
        assert _against_mpmath(p, at_major, _series(p, z, ctx30)[0], ctx30) < 1

    def test_a_gap_within_twice_the_bits_is_summed(self, ctx30):
        # 330 bits: within twice this plan's bits, so z is read exactly
        mp = ctx30.mp
        z = mp.mpc("0.4", mp.ldexp(mp.mpf(1), -331))
        bits = _plan(F_PARAMS, log_abs(z), ctx30)[1]
        assert fixed_point(z, 2 * bits) == fixed_point(z)
        assert _against_mpmath(F_PARAMS, z, _series(F_PARAMS, z, ctx30)[0], ctx30) < 1


def _partial_sums(p, z, n):
    """(1 + z U0, U1) exactly, U0 = sum u_k and U1 = sum (k+1) u_k over
    k < n, with u_0 = ab/c and u_k = u_(k-1) z (a+k)(b+k)/((c+k)(k+1)); z and
    both results are pairs (re, im) of Fractions."""
    zr, zi = z
    ur, ui = p.a * p.b / p.c, Fraction(0)
    sums = [ur, ui, ur, ui]
    for k in range(1, n):
        r = (p.a + k) * (p.b + k) / ((p.c + k) * (k + 1))
        ur, ui = (ur * zr - ui * zi) * r, (ur * zi + ui * zr) * r
        sums = [sums[0] + ur, sums[1] + ui, sums[2] + (k + 1) * ur, sums[3] + (k + 1) * ui]
    value = (1 + sums[0] * zr - sums[1] * zi, sums[0] * zi + sums[1] * zr)
    return value, (sums[2], sums[3])


class TestRoundingBound:
    """_series against its exact rational partial sums over its own n: the
    floors stay within the stated tail_tol / 2, and the one rounding to
    working precision adds at most half an ulp.  The tail is not involved."""

    @pytest.mark.parametrize(
        "p",
        EXACT_PARAMS + [HypParams(Fraction(-5, 2), Fraction(7, 3), Fraction(11, 4))],
        ids=EXACT_IDS + ["(-5/2,7/3;11/4)"],
    )
    @pytest.mark.parametrize(
        "z", [(Fraction(1, 2), 0), (Fraction(-1, 3), 0), (Fraction(3, 8), Fraction(1, 4))],
        ids=["1/2", "-1/3", "3/8+i/4"],
    )
    def test_within_stated_bound(self, ctx30, p, z):
        mp = ctx30.mp
        # 3/8 + i/4 is a dyadic mpc, so the kernel sees the exact z
        arg = mp.mpc(*(mp.mpf(x.numerator) / x.denominator for x in z)) if z[1] else z[0]
        value, deriv, n = _series(p, arg, ctx30)
        bound = Fraction(1, 2 * 10 ** (ctx30.working_digits + 5))  # tail_tol / 2
        for got, exact in zip((value, deriv), _partial_sums(p, (Fraction(z[0]), Fraction(z[1])), n)):
            parts = (got.real, got.imag) if z[1] else (got, mp.mpf(0))
            for part, want in zip(parts, exact):
                half_ulp = Fraction(2) ** (mp.mag(part) - mp.prec - 1) if part else 0
                assert abs(_exact(part) - want) <= bound + half_ulp


class TestNearTerminatingParameters:
    """a within 10^-80 of -5: the series does not end at the sixth term,
    and its terms grow for thousands of terms before they fall."""

    P = HypParams(Fraction(-5) + Fraction(1, 10**80), 3000, 500)

    @staticmethod
    def _oracle():
        with mpmath.workdps(300):
            return mpmath.hyp2f1(mpmath.mpf(-5) + mpmath.mpf(10) ** -80, 3000, 500, mpmath.mpf(1) / 2)

    def test_against_mpmath(self, ctx100):
        oracle = self._oracle()
        with mpmath.workdps(300):
            assert abs(hyp2f1(self.P, Fraction(1, 2), ctx100) - oracle) <= abs(oracle) * mpmath.mpf(ctx100.eps)

    def test_right_value_or_arithmetic_error(self, ctx30):
        # the series needs more terms than 30 digits allow
        try:
            value = hyp2f1(self.P, Fraction(1, 2), ctx30)
        except ArithmeticError:
            return
        oracle = self._oracle()
        with mpmath.workdps(300):
            assert abs(value - oracle) <= abs(oracle) * mpmath.mpf(ctx30.eps)


# Fractions, mpfs and mpcs (as (re, im) strings) in the direct region and,
# at -1, -0.7 and -0.8+0.3i, in the Pfaff region; S1/z at z = 1e-30 needs
# the guard bits that cover the division by |z|
DERIVATIVE_POINTS = [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2), Fraction(-1), "0.3", "-0.7", "1e-30",
                     ("0.2", "0.1"), ("-0.8", "0.3"), Fraction(0)]


def _point_id(spec):
    return "{}+{}i".format(*spec) if isinstance(spec, tuple) else str(spec)


def _point(ctx, spec):
    if isinstance(spec, tuple):
        return ctx.mp.mpc(*spec)
    return spec if isinstance(spec, Fraction) else ctx.real(spec)


class TestDerivative:
    def test_leading_coefficient_at_zero(self, ctx50):
        assert hyp_derivative(F_PARAMS, 0, ctx50) == ctx50.real("0.25")

    def test_matches_f2_by_definition(self, ctx50):
        z = ctx50.real("0.5")
        assert hyp_derivative(F_PARAMS, z, ctx50) == legendre_F2(z, ctx50) / 4

    @pytest.mark.parametrize("digits", [50, 1000])
    @pytest.mark.parametrize("p", EXACT_PARAMS, ids=EXACT_IDS)
    @pytest.mark.parametrize("spec", DERIVATIVE_POINTS, ids=_point_id)
    def test_against_mpmath(self, request, digits, p, spec):
        # d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z), the oracle at
        # 30 more bits and at the exact rational for a Fraction z
        ctx = request.getfixturevalue(f"ctx{digits}")
        z = _point(ctx, spec)
        with mpmath.workprec(ctx.mp.prec + 30):
            a, b, c = (mpmath.mpf(x.numerator) / x.denominator for x in (p.a, p.b, p.c))
            zq = mpmath.mpf(z.numerator) / z.denominator if isinstance(z, Fraction) else mpmath.mpmathify(z)
            oracle = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, zq)
            error = abs(mpmath.mpmathify(hyp_derivative(p, z, ctx)) - oracle)
            assert error <= mpmath.mpf(ctx.eps) * max(1, abs(oracle))

    @pytest.mark.parametrize("digits", [30, 50, 100])
    @pytest.mark.parametrize("z", [Fraction(14, 15), Fraction(13, 14)], ids=str)
    def test_non_dyadic_fraction_is_summed_exactly(self, request, digits, z):
        # within half a unit in the last place of F2 at the exact rational:
        # rounding z to an mpf first moves F2 by 1 to 4 such units here
        ctx = request.getfixturevalue(f"ctx{digits}")
        with mpmath.workprec(ctx.mp.prec + 60):
            oracle = mpmath.hyp2f1(1.5, 1.5, 2, mpmath.mpf(z.numerator) / z.denominator)
            error = abs(hyp2f1(F2_PARAMS, z, ctx) - oracle)
            assert error <= abs(oracle) * mpmath.mpf(2) ** -ctx.mp.prec + ctx.tail_tol

    def test_against_central_differences(self, ctx50):
        z = ctx50.real("0.3")
        h = ctx50.real(10) ** (-(ctx50.working_digits // 3))
        fd = central_difference(lambda w: hyp2f1(F_PARAMS, w, ctx50), z, h)
        exact = hyp_derivative(F_PARAMS, z, ctx50)
        # central differences are h^2-limited: ~2/3 of working digits here
        assert abs(fd - exact) < ctx50.real(10) ** (-(ctx50.working_digits // 3))


def _per_term_series(p, z, ctx):
    """(value, derivative, n) as _series gives them, from a per-term loop:
    each term shifted by s, divided, and added to both full-width sums, the
    derivative's with its weight k+1."""
    n, bits = _plan(p, log_abs(z), ctx)
    zr, zi, s, d = fixed_point(z, 2 * bits)
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c))
    ur = sum_r = deriv_r = (an * bn * cd << bits) // (ad * bd * cn)
    ui = sum_i = deriv_i = 0
    for k in range(1, n):
        num = (an + k * ad) * (bn + k * bd) * cd
        den = (cn + k * cd) * (k + 1) * ad * bd * d
        ur, ui = (ur * num * zr - ui * num * zi >> s) // den, (ur * num * zi + ui * num * zr >> s) // den
        sum_r, sum_i = sum_r + ur, sum_i + ui
        deriv_r, deriv_i = deriv_r + (k + 1) * ur, deriv_i + (k + 1) * ui
    value_r = (1 << bits) + (sum_r * zr - sum_i * zi >> s) // d
    value_i = (sum_r * zi + sum_i * zr >> s) // d
    vr, vi, dr, di = (ctx.mp.ldexp(ctx.mp.mpf(x), -bits) for x in (value_r, value_i, deriv_r, deriv_i))
    if hasattr(z, "_mpc_"):
        return ctx.mp.mpc(vr, vi), ctx.mp.mpc(dr, di), n
    return vr, dr, n


class TestBlockSums:
    """_series sums its terms in blocks and, for a Fraction z, divides by
    2^s d in one step; its results equal those of the per-term loop."""

    @pytest.mark.parametrize("p", [F_PARAMS, F2_PARAMS], ids=["F", "F2"])
    def test_at_one_half_for_every_block_remainder(self, p):
        # 1 to 200 digits make n cover every residue modulo the block length
        counts = set()
        for digits in range(1, 201):
            ctx = ctx_new(digits)
            got = _series(p, Fraction(1, 2), ctx)
            assert got == _per_term_series(p, Fraction(1, 2), ctx)
            counts.add(got[2] % _BLOCK)
        assert counts == set(range(_BLOCK))

    @pytest.mark.parametrize("digits", [30, 100, 300, 2000])
    @pytest.mark.parametrize(
        "spec", [Fraction(3, 7), Fraction(-1, 3), "0.3", "0.9", "-0.45", "1e-30",
                 ("0.3", "0.4"), ("-0.2", "0.1"), ("0.1", "1e-60")], ids=_point_id)
    def test_at_fractions_mpfs_and_mpcs(self, digits, spec):
        ctx = ctx_new(digits)
        z = _point(ctx, spec)
        assert _series(F_PARAMS, z, ctx) == _per_term_series(F_PARAMS, z, ctx)


def _exact_sums(p, z, n):
    """(1 + z U0, U1) over k < n, as _partial_sums gives them at a real
    Fraction z, as integers (value, derivative) over one integer denominator.
    The products of the ratios r_k = u_k / u_(k-1) are summed by binary
    splitting, so no gcd is taken and thousands of terms with 80-digit
    parameters stay cheap."""

    (an, ad), (bn, bd), (cn, cd), (zn, zd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c, z))

    def split(i, j):
        # (N, D, T, W): N / D = r_i ... r_(j-1), T / D = sum over i <= k < j
        # of r_i ... r_k, and W / D the same with weights k + 1
        if j - i == 1:
            num = (an + i * ad) * (bn + i * bd) * cd * zn
            return num, (cn + i * cd) * (i + 1) * ad * bd * zd, num, (i + 1) * num
        n1, d1, t1, w1 = split(i, (i + j) // 2)
        n2, d2, t2, w2 = split((i + j) // 2, j)
        return n1 * n2, d1 * d2, t1 * d2 + n1 * t2, w1 * d2 + n1 * w2

    _, d, t, w = split(1, n) if n > 1 else (1, 1, 0, 0)
    u0 = p.a * p.b / p.c  # U0 = u0 (D + T) / D and U1 = u0 (D + W) / D
    den = z.denominator * u0.denominator * d
    return den + z.numerator * u0.numerator * (d + t), z.denominator * u0.numerator * (d + w), den


class TestFractionBlocks:
    """_series at a Fraction z, summed a block at a time with one division per
    block, against its exact rational partial sums over its own n: as in
    TestRoundingBound, each of the value and the derivative is within
    tail_tol / 2 plus half an ulp.  One block from _block is within 2 units
    of its exact sums."""

    NEAR = TestNearTerminatingParameters.P
    POINTS = [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 7), Fraction(1, 9)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        u=st.integers(-2**300, 2**300),
        k0=st.integers(1, 10**4),
        ratios=st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool)),
                        min_size=1, max_size=_BLOCK),
    )
    def test_one_block_within_two_units(self, u, k0, ratios):
        # ratios of either size: the sums of growing terms far exceed u
        term, total, weighted = Fraction(u), 0, 0
        for k, (num, den) in enumerate(ratios, k0):
            term = term * num / den
            total, weighted = total + term, weighted + (k + 1) * term
        for got, exact in zip(_block(u, k0, ratios), (total, weighted, term)):
            assert abs(got - exact) < 2

    @staticmethod
    def _check(p, z, ctx):
        value, deriv, n = _series(p, z, ctx)
        *exact, den = _exact_sums(p, z, n)
        bound = Fraction(1, 2 * 10 ** (ctx.working_digits + 5))  # tail_tol / 2
        for got, num in zip((value, deriv), exact):
            half_ulp = Fraction(2) ** (ctx.mp.mag(got) - ctx.mp.prec - 1) if got else 0
            assert abs(_exact(got) * den - num) <= (bound + half_ulp) * den

    @pytest.mark.parametrize(
        "p",
        EXACT_PARAMS + [HypParams(Fraction(-5, 2), Fraction(7, 3), Fraction(11, 4))],
        ids=EXACT_IDS + ["(-5/2,7/3;11/4)"],
    )
    @pytest.mark.parametrize("z", POINTS, ids=str)
    def test_for_every_block_remainder(self, p, z):
        # the first digit count at which n meets each residue modulo the block length
        residues = set()
        for digits in range(1, 400):
            ctx = ctx_new(digits)
            n = _plan(p, math.log(abs(z)), ctx)[0]
            if n % _BLOCK not in residues:
                residues.add(n % _BLOCK)
                self._check(p, z, ctx)
            if len(residues) == _BLOCK:
                break
        assert len(residues) == _BLOCK

    @pytest.mark.parametrize("z", POINTS, ids=str)
    def test_terminating_series(self, ctx30, z):
        # 2F1(-2, 1/2; 1; z): one block, and every u_k from k = 2 on is 0
        self._check(HypParams(-2, Fraction(1, 2), 1), z, ctx30)

    @pytest.mark.parametrize("z", POINTS, ids=str)
    def test_terms_that_grow_first(self, ctx50, z):
        # at 1/2, -1/3 and 3/7 the terms grow for hundreds of terms, so a
        # block's sums exceed the term before it (A > E in _block); 50 digits
        # is the fewest the series allows
        self._check(self.NEAR, z, ctx50)


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
