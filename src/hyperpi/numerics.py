"""Precision contexts, decimal I/O, the exact fixed-point form of a number,
and the AGM / reference-pi oracles.

Every public operation in this package takes a :class:`PrecisionCtx` and
rounds at its working precision (target digits + guard digits).  The
underlying big-float arithmetic is mpmath, imported only when a context
first uses ``.mp`` (or an mpf helper here runs), so the pi engines, which
work in exact integers from series to digits, never load it.  Contexts
with the same working digits share one ``MPContext`` and one pi, so a call
rebuilds neither; nothing in the package changes its precision after
construction, so two contexts never see each other's precision.

The oracles share one AGM, on integers (_agm_fixed, with Legendre's sum
and one stated floor-error bound): ``agm`` reads its operands exactly and
narrows a far ratio step by step before it, ``legendre``'s Bruns check takes its limit and sum, and the
reference pi is its Gauss-Legendre iteration for pi 2^bits (pi_fixed),
cached per width: ``pi_reference`` rounds it once to an mpf and
``cm.pi_reference_digits`` reads its digits (truncated_digits).  That is
the only source of a "known pi" in this package: internal formulas and
verification reports all take pi from it, never from the identities under
test.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache


class PrecisionCtx:
    """Target/working decimal precision plus the mpmath context to run under.

    guard_digits is max(10, ceil(log10(target_digits)) + 10), the minimum
    the truncation policy needs so that series tails and rounding stay
    below the certified target.  The mpmath context is made on first use
    of .mp: the integer kernels read only the digit counts.
    """

    def __init__(self, target_digits: int):
        target_digits = int(target_digits)
        if target_digits < 1:
            raise ValueError("target_digits must be a positive integer")
        self.target_digits = target_digits
        self.guard_digits = max(10, math.ceil(math.log10(target_digits)) + 10)

    @cached_property
    def mp(self) -> MPContext:
        return _mp_context(self.working_digits)

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @property
    def eps(self):
        """10^(-working_digits), the rounding scale of this context."""
        return self.mp.mpf(10) ** (-self.working_digits)

    @property
    def zero_tol(self):
        """10^(-(working_digits // 2)), below which a computed value counts as 0."""
        return self.mp.mpf(10) ** (-(self.working_digits // 2))

    @property
    def tail_tol(self):
        """Series-truncation tolerance, 5 digits below working precision."""
        return self.mp.mpf(10) ** (-(self.working_digits + 5))

    def real(self, x):
        """Convert to this context's real type (Fraction-aware, exact parse)."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def complex(self, z):
        """Convert to this context's complex type."""
        if isinstance(z, Fraction):
            return self.mp.mpc(self.real(z))
        return self.mp.mpc(z)

    def __repr__(self):
        return f"PrecisionCtx(target_digits={self.target_digits})"


@lru_cache(maxsize=16)
def _mp_context(working_digits: int) -> MPContext:
    """The mpmath context every PrecisionCtx with these working digits uses."""
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.dps = working_digits
    return mp


def ctx_new(target_digits: int) -> PrecisionCtx:
    """Context for target_digits certified digits."""
    return PrecisionCtx(target_digits)


# ---------------------------------------------------------------------------
# Decimal serialization.  Reals print as [sign]digits[.digits][e+-n]; complex
# values print as <re>+<im>i / <re>-<im>i.  The default digit count includes
# three digits beyond working precision so print-then-parse is exact.
# ---------------------------------------------------------------------------

_REAL_PATTERN = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^({_REAL_PATTERN})$")
_COMPLEX_RE = re.compile(rf"^({_REAL_PATTERN})\s*([+-])\s*({_REAL_PATTERN})?[ij]$")
_IMAG_RE = re.compile(rf"^({_REAL_PATTERN})?[ij]$")


def format_real(x, ctx: PrecisionCtx, digits: int | None = None) -> str:
    """ValueError where the decimal exponent, about mag(x) log10(2), has more
    digits than Python's int-to-str limit converts (_long_exponent): found
    before mpmath spends its time forming them."""
    if digits is None:
        digits = ctx.working_digits + 3
    x = ctx.real(x)
    if x and ctx.mp.isfinite(x):
        reason = _long_exponent(math.log10(abs(ctx.mp.mag(x)) or 1))
        if reason:
            raise ValueError(reason)
    return ctx.mp.nstr(x, digits)


def _long_exponent(log10_bits: float) -> str:
    """Why a value of about 2^(+-10^log10_bits) cannot be printed: its
    decimal exponent has more digits than Python's int-to-str limit
    converts.  '' where it can, or where Python has no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    length = math.floor(log10_bits + math.log10(math.log10(2))) + 1
    if not limit or length <= limit:
        return ""
    return f"the value's decimal exponent has {length} digits, more than the {limit} Python converts to a string"


def format_complex(z, ctx: PrecisionCtx, digits: int | None = None) -> str:
    z = ctx.complex(z)
    re_s = format_real(z.real, ctx, digits)
    im = z.imag
    sign = "-" if im < 0 else "+"
    im_s = format_real(abs(im), ctx, digits)
    return f"{re_s}{sign}{im_s}i"


def format_value(v, ctx: PrecisionCtx, digits: int | None = None) -> str:
    """Real string when the value is real, <re>+<im>i otherwise."""
    z = ctx.complex(v)
    if z.imag == 0:
        return format_real(z.real, ctx, digits)
    return format_complex(z, ctx, digits)


def parse_real(s: str, ctx: PrecisionCtx):
    m = _REAL_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a decimal real: {s!r}")
    return ctx.mp.mpf(s.strip())


def parse_complex(s: str, ctx: PrecisionCtx):
    """Parse <re>+<im>i, <im>i, or a bare real."""
    s = s.strip()
    m = _COMPLEX_RE.match(s)
    if m:
        re_part = m.group(1)
        sign = -1 if m.group(2) == "-" else 1
        im_part = m.group(3) if m.group(3) is not None else "1"
        return ctx.mp.mpc(ctx.mp.mpf(re_part), sign * ctx.mp.mpf(im_part))
    m = _IMAG_RE.match(s)
    if m:
        im_part = m.group(1) if m.group(1) is not None else "1"
        return ctx.mp.mpc(0, ctx.mp.mpf(im_part))
    m = _REAL_RE.match(s)
    if m:
        return ctx.mp.mpc(ctx.mp.mpf(s))
    raise ValueError(f"not a decimal real or complex: {s!r}")


def truncated_digits(x: int, bits: int, n: int) -> str:
    """First n significant digits of x / 2^bits in [1, 10), truncated, as
    'd.ddd...'.

    Used by the pi engines and the reference pi, which report digits rather
    than a rounded value.  The integer is split by powers of ten down to
    pieces of at most 1000 digits (_decimal), so Python's 4300-digit limit
    on str(int) never applies.
    """
    m = (x * _pow10(n - 1)) >> bits
    if not _pow10(n - 1) <= m < 10 * _pow10(n - 1):
        raise ValueError("truncated_digits expects a value in [1, 10)")
    s = _decimal(m, n)
    return s if n == 1 else s[0] + "." + s[1:]


def _decimal(m: int, width: int) -> str:
    """0 <= m < 10^width as exactly `width` decimal digits: divmod by
    10^(width // 2) and each half converted the same way."""
    if width <= 1000:
        return str(m).zfill(width)
    high, low = divmod(m, _pow10(width // 2))
    return _decimal(high, width - width // 2) + _decimal(low, width // 2)


@lru_cache(maxsize=64)
def _pow10(n: int) -> int:
    return 10**n


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

def fixed_point(z, bits: int | None = None):
    """Integers (re, im, s, d), d odd, with (re + i im) / (2^s d) = z for a
    Fraction, mpf or mpc z; d = 1 unless z is a Fraction.  With no bits z is
    exact, as tau_point's reduction reads it, and the integers are as wide as
    the gap between its parts.  With bits, as the fixed-point kernels (the
    2F1 and Eisenstein series) read their argument, s <= bits and each part of
    an mpf or mpc is truncated toward 0, by less than 2^-bits: a part below
    2^-bits is 0, and no integer grows with the gap.  A Fraction stays exact."""
    if isinstance(z, Fraction):
        den = z.denominator
        s = (den & -den).bit_length() - 1
        return z.numerator, 0, s, den >> s
    parts = [x._mpf_ for x in (z.real, z.imag)]
    # mpmath's zero is (0, 0, 0, 0): only nonzero parts set the exponent
    s = max([-exp for _, man, exp, _ in parts if man] + [0])
    if bits is not None:
        s = min(s, bits)
    re, im = ((-1) ** sign * (man << exp + s if exp + s >= 0 else man >> -exp - s) for sign, man, exp, _ in parts)
    return re, im, s, 1


def _tail_bits(ctx: PrecisionCtx, error_bits: float) -> int:
    """Fractional bits of a fixed-point series whose floors miss by less than
    2^error_bits units in all: they keep that below tail_tol / 2, and 2 more
    cover the float rounding of error_bits."""
    return math.ceil((ctx.working_digits + 5) * math.log2(10) + 1 + error_bits) + 2


def fixed_point_bits(z) -> int:
    """Bit length of the widest integer fixed_point(z) forms for an mpf or mpc
    z, found without forming it: as wide as the gap between the parts."""
    parts = [x._mpf_ for x in (z.real, z.imag) if x]  # only nonzero parts set s, as in fixed_point
    s = max([-exp for _, _, exp, _ in parts] + [0])
    return max([exp + bc + s for _, _, exp, bc in parts] + [0])


def exact_mpf(n: int, mp: MPContext):
    """The integer n as an exact mpf of mp, in time linear in its size
    (mpmath's own conversion strips trailing zero bits a byte at a time).
    +exact_mpf(n, mp) rounds it as mp.mpf(n) does."""
    if not n:
        return mp.zero
    zeros = (n & -n).bit_length() - 1
    man = abs(n) >> zeros
    return mp.make_mpf((int(n < 0), man, zeros, man.bit_length()))


def log_abs(z) -> float:
    """log|z| of a Fraction, mpf or mpc z, read from its mantissas and
    exponents before any integer is formed; -inf at z = 0.  An exponent
    below -2^1000 would overflow a float; such a z is far below any
    tolerance, and capping the exponent only raises the result, which keeps
    every bound sized from it an upper bound."""
    if isinstance(z, Fraction):
        return math.log(abs(z.numerator)) - math.log(z.denominator) if z else -math.inf
    parts = [x._mpf_ for x in (z.real, z.imag) if x]
    if not parts:
        return -math.inf
    top = max(exp + bc for _, _, exp, bc in parts)  # 2^(top-1) <= |z| < 2^(top+1)
    # each part over 2^top from its 64 leading bits; one far below the other adds 0
    norm = sum(math.ldexp(man >> max(bc - 64, 0), exp + max(bc - 64, 0) - top) ** 2 for _, man, exp, bc in parts)
    return math.log(norm) / 2 + max(top, -(1 << 1000)) * math.log(2)


# ---------------------------------------------------------------------------
# Oracles: one AGM, on integers
# ---------------------------------------------------------------------------

def _agm_fixed(a: int, b: int, bits: int) -> tuple[int, int, int]:
    """(a_n, b_n, s) of the AGM of a / 2^bits and b / 2^bits, positive, on
    integers of `bits` fractional bits, with Legendre's sum
    s = sum_(k=1..n) 2^(k-1) c_k^2, c_k = a_(k-1) - a_k.  Step k sets
    a_k = floor((a + b)/2), b_k = isqrt(ab) and adds 2^(k-1) c_k^2, floored;
    the loop stops at the first n with 2^n (a_n - b_n)^2 < 2^bits, where
    the next term of the sum is below 1/4 unit, the rest fall quadratically,
    and the limit is within (a_n - b_n)^2 / (8 b_n) units of (a_n + b_n)/2
    (a_n alone is up to (a_n - b_n)/2 off).

    Every floor lowers its result by less than one unit and every step is
    monotone, so a_k <= A_k and b_k <= B_k for the exact AGM (A_k, B_k) of
    the same integers, and the relative shortfall grows by less than 1/B_k
    per step.  As B_k grows from B_1 = sqrt(ab), a_n and b_n are within
    n h units of A_n and B_n, where h = A_1 / B_1 = cosh(log(a/b)/2), the
    factor by which the first square root moves an error in a or b: 1.0151
    for pi_fixed's a/b = sqrt(2), and about sqrt(a/b)/2 for a far ratio,
    which agm offsets by widening.  So c_k is within k h units, and s
    is within n + h W units of the exact sum, W = sum_(k=1..n) k 2^k
    (|C_k| + k h) / 2^bits for the exact c_k = C_k.
    """
    s = k = 0
    while True:
        mean = (a + b) >> 1
        s += ((a - mean) ** 2 << k) >> bits
        a, b = mean, isqrt(a * b)
        k += 1
        if ((a - b) ** 2 << k) >> bits == 0:
            return a, b, s


def agm(a, b, ctx: PrecisionCtx):
    """Common limit of a' = (a+b)/2, b' = sqrt(ab) for positive a, b, to
    ctx's precision relative to the limit, on integers.  Each step runs at
    the precision p plus 64 guard bits plus log2 of the ratio still left: the
    first reads both operands exactly (the smaller has p + 64 bits), and
    after each step both are shifted right until the smaller has p + 64 bits
    again, as sqrt(ab) roughly square-roots the ratio.  Once the ratio is
    below 4 _agm_fixed ends the iteration at that width.  Every floor and
    shift lowers an operand by less than a unit of the next step, at most
    2^-(p+63) of it, and the AGM is homogeneous and increasing in each
    operand, so the limit falls short by less than 2^-(p+62) per step
    (n 2^-(p+63) over _agm_fixed's n steps).  (a_n + b_n)/2 is rounded once."""
    mp = ctx.mp
    a, b = ctx.real(a), ctx.real(b)
    if not all(x > 0 and mp.isfinite(x) for x in (a, b)):
        raise ValueError("agm requires positive finite operands")
    parts = [x._mpf_ for x in (a, b)]
    tops = [exp + bc for _, _, exp, bc in parts]  # x < 2^top
    shift = mp.prec + 64 - min(tops)  # a and b are integers over 2^shift
    a, b = (man << exp + shift for _, man, exp, _ in parts)  # each shifted left by at least 64
    while abs(a.bit_length() - b.bit_length()) > 1:
        a, b = (a + b) >> 1, isqrt(a * b)
        drop = b.bit_length() - mp.prec - 64
        a, b, shift = a >> drop, b >> drop, shift - drop
    a, b, _ = _agm_fixed(a, b, max(a, b).bit_length())
    return mp.ldexp(mp.mpf(a + b), -shift - 1)


def pi_reference(ctx: PrecisionCtx):
    """pi as an mpf of ctx, rounded once from pi_fixed: the package's only
    source of known pi, independent of the hypergeometric identities whose
    checks compare against it."""
    return _pi(ctx.working_digits)


@lru_cache(maxsize=16)
def _pi(working_digits: int):
    """pi rounded to the precision of these working digits (same key and
    cache rule as _mp_context).  pi_fixed keeps at least 63 bits past that
    precision and is less than 2^10 of its units off pi, so the one
    rounding is the correct one unless pi lies within 2^-53 units in the
    last place of a rounding boundary."""
    mp = _mp_context(working_digits)
    value, bits = pi_fixed(working_digits)
    return mp.ldexp(mp.mpf(value), -bits)


@lru_cache(maxsize=16)
def pi_fixed(working_digits: int) -> tuple[int, int]:
    """(P, bits) with |P - pi 2^bits| < 24 (n + 2), from the Gauss-Legendre
    iteration (Salamin 1976; Brent 1976): _agm_fixed in n steps from
    a_0 = 1, b_0 = 1/sqrt(2) on integers of `bits` fractional bits, 64
    guard bits past ceil((working_digits + 1) log2 10), which is at least
    mpmath's precision of these digits, round((working_digits + 1) log2 10),
    then pi = (a_n + b_n)^2 / (4 t) with t = 1/4 - s.  n is about log2(bits)
    (16 at 10^5 digits), so the bound is below 2^10 for any width below
    2^35 bits.

    b_0 is floored once, which lowers the exact AGM by less than a unit and
    moves its sum by less than W < 0.35.  With _agm_fixed's bound (h < 1.0152,
    h W < 0.35) and the remainders the stopping rule leaves, a_n + b_n is
    within 2.04 n + 2.25 units of twice the limit and t within n + 1.  The
    final quotient moves by (a+b)/(2t) < 3.8 per unit of a + b and by
    pi/t < 13.8 per unit of t, and floors once: 21.6 n + 24 units in all.
    """
    bits = math.ceil((working_digits + 1) * math.log2(10)) + 64
    a, b, s = _agm_fixed(1 << bits, isqrt(1 << (2 * bits - 1)), bits)
    return (a + b) ** 2 // ((1 << bits) - (s << 2)), bits


def isqrt(n: int) -> int:
    """floor(sqrt(n)), as math.isqrt gives it, by Newton's iteration on
    1/sqrt(x) with multiplications only (each step doubles the bits, and
    the last gives sqrt(x) = x / sqrt(x) with its correction, Karp and
    Markstein 1997), then corrected to the exact floor by one square.
    math.isqrt divides at each step, and CPython's division takes time
    quadratic in the width where its multiplication is Karatsuba's."""
    if n < 1 << 256:
        return math.isqrt(n)
    h = (n.bit_length() + 1) // 2  # x = n / 2^(2h) lies in [1/4, 1)
    widths = [h + 2]
    while widths[-1] > 48:
        widths.append(widths[-1] // 2 + 2)
    p = widths.pop()
    r = int(math.ldexp(1 / math.sqrt(math.ldexp(n >> (2 * h - 53), -53)), p))  # 2^p / sqrt(x)
    while True:
        q = widths.pop()
        r <<= q - p
        s = (n >> (2 * h - q)) * r >> q  # sqrt(x) 2^q, as accurate as r
        e = (1 << q) - (s * r >> q)  # (1 - x r^2) 2^q
        if not widths:
            y = (s + (s * e >> (q + 1))) >> (q - h)
            break
        r += r * e >> (q + 1)
        p = q
    rem = n - y * y
    while rem < 0:
        y -= 1
        rem += 2 * y + 1
    while rem > 2 * y:
        y += 1
        rem -= 2 * y - 1
    return y
