"""Precision contexts, decimal I/O, the exact fixed-point form of a number,
and the AGM / reference-pi oracles.

Every public operation in this package takes a :class:`PrecisionCtx` and
rounds at its working precision (target digits + guard digits).  The
underlying big-float arithmetic is mpmath.  Contexts with the same working
digits share one ``MPContext`` and one pi, so a call rebuilds neither;
nothing in the package changes its precision after construction, so two
contexts never see each other's precision.

``pi_reference`` (Gauss-Legendre AGM iteration) is the only source of a
"known pi" in this package: internal formulas and verification reports all
take pi from it, never from the identities under test.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_mp import MPContext
from mpmath.libmp import numeral


class PrecisionCtx:
    """Target/working decimal precision plus the mpmath context to run under.

    guard_digits is max(10, ceil(log10(target_digits)) + 10), the minimum
    the truncation policy needs so that series tails and rounding stay
    below the certified target.
    """

    def __init__(self, target_digits: int):
        target_digits = int(target_digits)
        if target_digits < 1:
            raise ValueError("target_digits must be a positive integer")
        self.target_digits = target_digits
        self.guard_digits = max(10, math.ceil(math.log10(target_digits)) + 10)
        self.mp = _mp_context(self.working_digits)

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
    digits than Python's int-to-str limit converts: found before mpmath
    spends its time forming them."""
    if digits is None:
        digits = ctx.working_digits + 3
    x = ctx.real(x)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and x and ctx.mp.isfinite(x):
        length = math.floor(math.log10(abs(ctx.mp.mag(x)) or 1) + math.log10(math.log10(2))) + 1
        if length > limit:
            raise ValueError(f"the value's decimal exponent has {length} digits, more than the {limit} "
                             "Python converts to a string")
    return ctx.mp.nstr(x, digits)


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


def truncated_digits(x, n: int) -> str:
    """First n significant digits of x in [1, 10), truncated, as 'd.ddd...'.

    Used by the pi engine, which reports digits rather than a rounded value.
    mpmath's numeral converts in pieces below 250 digits, so Python's
    4300-digit limit on str(int) never applies.
    """
    if not (1 <= x < 10):
        raise ValueError("truncated_digits expects a value in [1, 10)")
    s = numeral(int(x * 10 ** (n - 1)), 10, n)
    if len(s) != n:
        raise ValueError(f"needs {n} significant digits, got {len(s)}")
    return s if n == 1 else s[0] + "." + s[1:]


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

def fixed_point(z, bits: int | None = None):
    """Integers (re, im, s, d), d odd, with (re + i im) / (2^s d) = z for a
    Fraction, mpf or mpc z; d = 1 unless z is a Fraction.  With no bits z is
    exact, as tau_point's reduction reads it, and the integers are as wide as
    the gap between its parts.  With bits, as the fixed-point kernels (the
    2F1 and Lambert series) read their argument, s <= bits and each part of
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
# Oracles
# ---------------------------------------------------------------------------

def agm(a, b, ctx: PrecisionCtx):
    """Common limit of a' = (a+b)/2, b' = sqrt(ab) for positive a, b."""
    a, b = ctx.real(a), ctx.real(b)
    if a <= 0 or b <= 0:
        raise ValueError("agm requires positive operands")
    a, b, _ = agm_converged(a, b, 0, ctx.mp)
    return (a + b) / 2


def agm_sums(a, b, t, mp: MPContext):
    """Successive (a_n, b_n, t_n), n >= 1, of the AGM of a_0 = a and b_0 = b
    with Legendre's sum t_n = t - sum_(k=1..n) 2^(k-1) c_k^2, c_k = a_(k-1) - a_k."""
    p = mp.mpf(1)
    while True:
        an = (a + b) / 2
        a, b, t, p = an, mp.sqrt(a * b), t - p * (a - an) ** 2, 2 * p
        yield a, b, t


def agm_converged(a, b, t, mp: MPContext):
    """The first (a_n, b_n, t_n), n >= 0, with |a_n - b_n| < 10^(-mp.dps)
    max(1, a, b), as one ulp of a large result exceeds 10^(-mp.dps).
    After a few linear steps convergence is quadratic; the cap is a safety net."""
    tol = mp.mpf(10) ** (-mp.dps) * max(mp.mpf(1), a, b)
    steps = agm_sums(a, b, t, mp)
    for _ in range(64 + 4 * int(math.log2(mp.dps + 16))):
        if abs(a - b) < tol:
            return a, b, t
        a, b, t = next(steps)
    raise ArithmeticError("AGM iteration failed to converge")


def pi_reference(ctx: PrecisionCtx):
    """pi via the Gauss-Legendre AGM iteration, computed once per working
    precision: the package's only source of known pi, independent of the
    hypergeometric identities whose checks compare against it."""
    return _pi(ctx.working_digits)


@lru_cache(maxsize=16)
def _pi(working_digits: int):
    """pi = (a+b)^2 / (4t) from the AGM of 1 and 1/sqrt(2) with t_0 = 1/4, in
    the mpmath context of these working digits (same key and cache rule as
    _mp_context)."""
    mp = _mp_context(working_digits)
    a, b, t = agm_converged(mp.mpf(1), 1 / mp.sqrt(mp.mpf(2)), mp.mpf(1) / 4, mp)
    return (a + b) ** 2 / (4 * t)
