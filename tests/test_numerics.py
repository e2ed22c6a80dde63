import math
import random
import weakref
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpi import agm, ctx_new, format_complex, format_real, parse_complex, parse_real, pi_reference
from hyperpi import numerics
from hyperpi.cm import pi_reference_digits
from hyperpi.numerics import (
    PrecisionCtx,
    _agm_fixed,
    exact_mpf,
    fixed_point,
    fixed_point_bits,
    isqrt,
    log_abs,
    pi_fixed,
    truncated_digits,
)

from _oracles import AGM_1_HALF, PI_50, machin_pi


class TestPrecisionCtx:
    def test_guard_floor_at_50(self):
        assert ctx_new(50).working_digits >= 60

    def test_guard_floor_at_1000(self):
        assert ctx_new(1000).working_digits >= 1013

    def test_zero_digits_rejected(self):
        with pytest.raises(ValueError):
            ctx_new(0)

    def test_negative_digits_rejected(self):
        with pytest.raises(ValueError):
            ctx_new(-3)

    def test_contexts_do_not_share_precision(self):
        a, b = ctx_new(10), ctx_new(200)
        assert a.mp.dps != b.mp.dps
        assert a.mp.dps == a.working_digits

    def test_mpmath_context_made_on_first_use(self):
        # the integer kernels read only the digit counts; perfbench's tracer
        # holds contexts in a WeakSet
        ctx = PrecisionCtx(123)
        assert "mp" not in vars(ctx)
        assert ctx.mp.dps == ctx.working_digits and ctx.mp is ctx.mp
        assert weakref.ref(ctx)() is ctx

    def test_same_working_digits_share_mpmath_context(self):
        # 100 target digits get 12 guard digits: 112 working digits
        a, b = ctx_new(100), PrecisionCtx(100)
        assert a.mp is b.mp
        assert ctx_new(99).mp is not a.mp


class TestAgm:
    def test_fixed_point(self, ctx50):
        for x in ("1", "0.37", "250.5"):
            v = ctx50.real(x)
            assert abs(agm(v, v, ctx50) - v) < ctx50.eps

    def test_symmetry(self, ctx50):
        assert agm(1, "0.5", ctx50) == agm("0.5", 1, ctx50)

    def test_frozen_value(self, ctx50):
        # decimal-module iteration, scratch, 50 digits
        assert abs(agm(1, "0.5", ctx50) - ctx50.real(AGM_1_HALF)) < ctx50.real("1e-49")

    def test_between_min_and_max_and_homogeneous(self, ctx50):
        rng = random.Random(7)
        for _ in range(10):
            a = ctx50.real(repr(rng.uniform(0.01, 20)))
            b = ctx50.real(repr(rng.uniform(0.01, 20)))
            scale = ctx50.real(repr(rng.uniform(0.1, 5)))
            m = agm(a, b, ctx50)
            assert min(a, b) <= m <= max(a, b)
            assert abs(agm(scale * a, scale * b, ctx50) - scale * m) < 100 * ctx50.eps * scale * m

    def test_nonpositive_rejected(self, ctx50):
        with pytest.raises(ValueError):
            agm(0, 1, ctx50)
        with pytest.raises(ValueError):
            agm(1, -2, ctx50)
        with pytest.raises(ValueError):
            agm("inf", 1, ctx50)

    @pytest.mark.parametrize("a, b", [("1e-61", "2e-61"), ("1e-70", "3e-70"), ("1", "1e-80"), ("1e200", "1"),
                                      ("1e-200", "3e-200"), ("2e200", "5e200"), ("1e200", "1e-200"),
                                      ("1", "1e-1000"), ("1e-100000", "1")])
    def test_relative_precision_against_mpmath(self, ctx50, a, b):
        # the operands as ctx50 reads them; mpmath's agm at 80 digits
        a, b = ctx50.real(a), ctx50.real(b)
        with mpmath.workdps(80):
            expected = mpmath.agm(a, b)
        assert abs(agm(a, b, ctx50) - expected) < ctx50.eps * expected


class TestAgmKernel:
    # the AGM of the kernel's integers at twice its width plus 64 bits, against
    # the floor-error bound _agm_fixed states: a_n, b_n within n h units
    # below A_n, B_n and the sum within n + h W units
    @settings(max_examples=100, deadline=None)
    @given(bits=st.integers(8, 10**4), gap=st.floats(0, 1), swap=st.booleans(), data=st.data())
    def test_within_stated_floor_bound(self, bits, gap, swap, data):
        a = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1), label="a")
        low = max(1, int(bits * (1 - gap)))  # b has `low` bits, a ratio up to 2^(bits - 1)
        b = data.draw(st.integers(1 << (low - 1), (1 << low) - 1), label="b")
        if swap:
            a, b = b, a
        with mock.patch.object(numerics, "isqrt", wraps=numerics.isqrt) as steps:
            a_n, b_n, s = _agm_fixed(a, b, bits)
        n = steps.call_count
        with mpmath.workprec(2 * bits + 64):
            A, B, S, W = mpmath.mpf(a), mpmath.mpf(b), 0, 0
            h = (A + B) / (2 * mpmath.sqrt(A * B))
            for k in range(1, n + 1):
                C = (A - B) / 2
                A, B = A - C, mpmath.sqrt(A * B)
                S += 2 ** (k - 1) * C**2 / 2**bits
                W += k * 2**k * (abs(C) + k * h) / 2**bits
            tiny = mpmath.mpf(2) ** -32  # the rounding of A and B
            assert -tiny <= A - a_n <= n * h and -tiny <= B - b_n <= n * h
            assert abs(s - S) <= n + h * W


class TestPiReference:
    def test_frozen_50_digits(self, ctx50):
        assert abs(pi_reference(ctx50) - ctx50.real(PI_50)) < ctx50.real("1e-49")

    def test_against_machin_oracle_200_digits(self):
        ctx = ctx_new(200)
        assert abs(pi_reference(ctx) - machin_pi(ctx)) < ctx.real("1e-205")

    def test_computed_once_per_working_precision(self):
        assert pi_reference(ctx_new(75)) is pi_reference(ctx_new(75))

    def test_precision_monotonicity(self, ctx50, ctx100):
        a = truncated_digits(*pi_fixed(ctx50.working_digits), 50)
        b = truncated_digits(*pi_fixed(ctx100.working_digits), 50)
        assert a == b

    @pytest.mark.parametrize("targets", [range(1, 401), range(4290, 4311), [10**4]],
                             ids=["1..400", "4290..4310", "10^4"])
    def test_rounded_as_mpmath_pi(self, targets):
        # mpmath's pi at a context's precision is correctly rounded; an mpf
        # Gauss-Legendre iteration misses it by up to 5 ulps at most targets
        for target in targets:
            ctx = ctx_new(target)
            assert pi_reference(ctx) == +ctx.mp.pi, target

    def test_fixed_point_within_its_bound(self):
        # |P - pi 2^bits| < 24 (n + 2) < 2^10 units, against mpmath's pi at 40 more bits
        for working_digits in (11, 100, 1000, 4321):
            value, bits = pi_fixed(working_digits)
            with mpmath.workprec(bits + 40):
                assert abs(value - mpmath.ldexp(mpmath.pi, bits)) < 2**10

    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 10**4])  # 5000: test_digits_beyond_int_str_limit
    def test_digits_against_mpmath(self, digits):
        with mpmath.workdps(digits + 20):
            expected = mpmath.nstr(+mpmath.pi, digits + 10)[: digits + 1]
        assert pi_reference_digits(digits) == expected


class TestIsqrt:
    def test_equals_math_isqrt(self):
        rng = random.Random(17)
        widths = [rng.randrange(1, 3000) for _ in range(300)] + [10**4, 10**5]
        for bits in widths:
            n = rng.getrandbits(bits)
            root = 1 << (bits // 2)
            for m in (n, root * root, root * root - 1, (root + 1) ** 2 - 1, (1 << bits) - 1):
                assert isqrt(m) == math.isqrt(m), bits


class TestDecimalIO:
    def test_real_roundtrip_is_exact(self, ctx50):
        rng = random.Random(11)
        for _ in range(25):
            x = ctx50.real(repr(rng.uniform(-1, 1))) * ctx50.real(10) ** rng.randint(-30, 30)
            assert parse_real(format_real(x, ctx50), ctx50) == x

    def test_complex_roundtrip_is_exact(self, ctx50):
        rng = random.Random(12)
        for _ in range(25):
            z = ctx50.mp.mpc(ctx50.real(repr(rng.uniform(-5, 5))), ctx50.real(repr(rng.uniform(-5, 5))))
            assert parse_complex(format_complex(z, ctx50), ctx50) == z

    @pytest.mark.parametrize(
        "text,re_s,im_s",
        [
            ("1.5+2.5i", "1.5", "2.5"),
            ("1.5-2.5i", "1.5", "-2.5"),
            ("-1e-3+2e-7i", "-0.001", "2e-7"),
            ("0+2i", "0", "2"),
            ("3.25", "3.25", "0"),
            ("2i", "0", "2"),
            ("-0.5j", "0", "-0.5"),
        ],
    )
    def test_parse_complex_forms(self, ctx50, text, re_s, im_s):
        z = parse_complex(text, ctx50)
        assert z.real == ctx50.real(re_s)
        assert z.imag == ctx50.real(im_s)

    @pytest.mark.parametrize("bad", ["", "i+2", "1.5+2.5", "one", "1.5 2.5i", "2+3x"])
    def test_parse_complex_rejects(self, ctx50, bad):
        with pytest.raises(ValueError):
            parse_complex(bad, ctx50)

    def test_format_complex_shape(self, ctx50):
        z = ctx50.mp.mpc(1, -2)
        s = format_complex(z, ctx50, 5)
        assert s == "1.0-2.0i"

    def test_truncated_digits_truncates(self, ctx50):
        # pi digit 10 is 3, but digit 11 rounds it up; truncation must not
        assert truncated_digits(*pi_fixed(ctx50.working_digits), 10) == "3.141592653"
        assert truncated_digits(int(Fraction("1.999999") * 2**40), 40, 3) == "1.99"
        assert truncated_digits(9, 0, 1) == "9"
        with pytest.raises(ValueError):
            truncated_digits(1, 1, 3)
        with pytest.raises(ValueError):
            truncated_digits(10, 0, 3)

    @pytest.mark.parametrize("n", [999, 1000, 1001, 4300, 4301, 12345])
    def test_truncated_digits_split_keeps_every_digit(self, n):
        # pieces of at most 1000 digits, each zero-padded to its width
        bits = 4 * n
        assert truncated_digits((10 << bits) // 3, bits, n) == "3." + "3" * (n - 1)
        x = ((10 ** (n - 1) + 7) << bits) // 10 ** (n - 1) + 1
        assert truncated_digits(x, bits, n) == "1." + "0" * (n - 2) + "7"

    def test_digits_beyond_int_str_limit(self):
        # Python >= 3.11 refuses str(int) above 4300 digits
        with mpmath.workdps(5020):
            expected = mpmath.nstr(+mpmath.pi, 5010)[:5001]
        assert pi_reference_digits(5000) == expected


def _log_of_integers(re, im, s, d):
    """log|z| from the exact integers of z = (re + i im) / (2^s d), with s
    capped at 2^1000 as log_abs caps the exponent."""
    return math.log(re * re + im * im) / 2 - min(s, 1 << 1000) * math.log(2) - math.log(d)


class TestFixedPointHelpers:
    def test_exact_mpf_is_exact_and_rounds_as_mpmath(self, ctx50):
        mp, rng = ctx50.mp, random.Random(3)
        for _ in range(300):
            n = rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 2000)) << rng.randrange(0, 300)
            assert exact_mpf(n, mp) == n
            assert (+exact_mpf(n, mp))._mpf_ == mp.mpf(n)._mpf_
        assert exact_mpf(0, mp) == 0

    def test_exact_mpf_of_a_long_power_of_two(self, ctx50):
        # mpmath's own conversion of 2^(10^7) strips its zeros a byte at a time
        assert exact_mpf(1 << 10**7, ctx50.mp) == ctx50.mp.ldexp(1, 10**7)

    def test_fixed_point_bits_is_the_width_of_fixed_point(self, ctx50):
        mp, rng = ctx50.mp, random.Random(5)
        for _ in range(300):
            parts = [mp.ldexp(rng.getrandbits(60) * rng.choice((1, -1, 0)), rng.randrange(-500, 500)) for _ in "ri"]
            re, im, _, _ = fixed_point(mp.mpc(*parts))
            assert fixed_point_bits(mp.mpc(*parts)) == max(abs(re), abs(im)).bit_length()

    def test_fixed_point_is_exact_where_z_fits_in_bits(self, ctx50):
        mp, rng = ctx50.mp, random.Random(7)
        for _ in range(300):
            parts = [mp.ldexp(rng.getrandbits(60) * rng.choice((1, -1, 0)), rng.randrange(-300, 50)) for _ in "ri"]
            exact = fixed_point(mp.mpc(*parts))
            assert fixed_point(mp.mpc(*parts), exact[2] + rng.randrange(0, 50)) == exact
        # 1 + 2^-400 has more bits than ctx50 rounds to, and keeps them all
        z = mp.make_mpc(((0, (1 << 400) + 1, -400, 401), mp.ldexp(1, -1000)._mpf_))
        assert fixed_point(z, 400) == ((1 << 400) + 1, 0, 400, 1)

    def test_fixed_point_truncates_each_part_toward_zero(self, ctx50):
        mp, rng = ctx50.mp, random.Random(11)
        for _ in range(300):
            parts = [mp.ldexp(rng.getrandbits(60) * rng.choice((1, -1, 0)), rng.randrange(-300, 0)) for _ in "ri"]
            bits = rng.randrange(0, 300)
            re, im, s, d = fixed_point(mp.mpc(*parts), bits)
            assert s <= bits and d == 1
            for n, part in zip((re, im), parts):
                sign, man, exp, _ = part._mpf_
                exact, got = (-1) ** sign * man * Fraction(2) ** exp, Fraction(n, 1 << s)
                assert got * exact >= 0 and abs(got) <= abs(exact) and abs(exact - got) < Fraction(1, 1 << bits)

    @pytest.mark.parametrize("gap_bits", [100, 10**7, 2**80])
    def test_a_part_below_2_to_the_minus_bits_is_zero(self, ctx50, gap_bits):
        # no integer as wide as the gap is formed, so 2^80 bits take no time
        mp = ctx50.mp
        for minor in (mp.ldexp(3, -gap_bits), mp.ldexp(-3, -gap_bits)):
            assert fixed_point(mp.mpc(minor, "0.7"), 90) == fixed_point(mp.mpc(0, "0.7"), 90)
            assert fixed_point(mp.mpc("-0.7", minor), 90) == fixed_point(mp.mpf("-0.7"), 90)
            assert fixed_point(minor, 90)[:2] == (0, 0)

    def test_a_fraction_stays_exact(self):
        for z in (Fraction(1, 3), Fraction(-5, 7 << 400), Fraction(1, 2), Fraction(0)):
            re, im, s, d = fixed_point(z, 10)
            assert (re, im, s, d) == fixed_point(z) and Fraction(re, d << s) == z and im == 0

    def test_log_abs_matches_the_exact_integers(self, ctx50):
        mp, rng = ctx50.mp, random.Random(13)
        points = [Fraction(1, 2), Fraction(-3, 7 << 100), Fraction(10**30, 3)]
        for _ in range(300):
            points.append(mp.mpc(*(mp.ldexp(rng.getrandbits(rng.randrange(1, 400)) * rng.choice((1, -1, 0)),
                                            rng.randrange(-600, 50)) for _ in "ri")))
        for z in points:
            if z:
                assert log_abs(z) == pytest.approx(_log_of_integers(*fixed_point(z)), rel=1e-14, abs=1e-12)

    @pytest.mark.parametrize("exponent", [f"e-{10**399}", "2^-2^80"], ids=["1e-<400 digits>", "2^-2^80"])
    def test_log_abs_at_exponents_past_a_float(self, ctx50, exponent):
        # 400-digit and 2^80 exponents: the exact integers stay small, s does not
        mp = ctx50.mp

        def value(x):
            return mp.ldexp(x, -2**80) if exponent == "2^-2^80" else mp.mpf(x) * mp.mpf(f"1{exponent}")

        for z in (value(3), value(-0.5), mp.mpc(value(3), value(0.25)), mp.mpc(0, value(7))):
            assert log_abs(z) == pytest.approx(_log_of_integers(*fixed_point(z)), rel=1e-14)

    def test_log_abs_of_zero(self, ctx50):
        assert log_abs(ctx50.mp.mpc(0)) == log_abs(Fraction(0)) == -math.inf
