import random

import mpmath
import pytest

from hyperpi import agm, ctx_new, format_complex, format_real, parse_complex, parse_real, pi_reference
from hyperpi.cm import pi_reference_digits
from hyperpi.numerics import (
    PrecisionCtx,
    drop_minor_part,
    exact_mpf,
    fixed_point,
    fixed_point_bits,
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


class TestPiReference:
    def test_frozen_50_digits(self, ctx50):
        assert abs(pi_reference(ctx50) - ctx50.real(PI_50)) < ctx50.real("1e-49")

    def test_against_machin_oracle_200_digits(self):
        ctx = ctx_new(200)
        assert abs(pi_reference(ctx) - machin_pi(ctx)) < ctx.real("1e-205")

    def test_computed_once_per_working_precision(self):
        assert pi_reference(ctx_new(75)) is pi_reference(ctx_new(75))

    def test_precision_monotonicity(self, ctx50, ctx100):
        a = truncated_digits(pi_reference(ctx50), 50)
        b = truncated_digits(pi_reference(ctx100), 50)
        assert a == b


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
        assert truncated_digits(pi_reference(ctx50), 10) == "3.141592653"
        assert truncated_digits(ctx50.real("1.999999"), 3) == "1.99"
        with pytest.raises(ValueError):
            truncated_digits(ctx50.real("0.5"), 3)

    def test_digits_beyond_int_str_limit(self):
        # Python >= 3.11 refuses str(int) above 4300 digits
        with mpmath.workdps(5020):
            expected = mpmath.nstr(+mpmath.pi, 5010)[:5001]
        assert pi_reference_digits(5000) == expected


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

    def test_drop_minor_part(self, ctx50):
        mp = ctx50.mp
        z = mp.mpc(mp.ldexp(3, -100), "0.7")
        assert drop_minor_part(z, 90) == mp.mpc(0, "0.7")
        assert drop_minor_part(z, 110) is z
        assert drop_minor_part(mp.mpc("0.7", mp.ldexp(-3, -100)), 90) == mp.mpc("0.7", 0)
        for w in (mp.mpf("0.7"), mp.mpc("0.7", 0), mp.mpc(0, "0.7")):
            assert drop_minor_part(w, 0) is w

    def test_drop_keeps_the_larger_part_exact(self, ctx50):
        # 1 + 2^-400 has more bits than ctx50 rounds to, and keeps them all
        mp = ctx50.mp
        wide = (0, (1 << 400) + 1, -400, 401)
        z = mp.make_mpc((wide, mp.ldexp(1, -1000)._mpf_))
        assert drop_minor_part(z, 500).real._mpf_ == wide
