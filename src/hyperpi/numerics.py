"""Precision contexts, decimal I/O, and the AGM / reference-pi oracles.

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
    if digits is None:
        digits = ctx.working_digits + 3
    return ctx.mp.nstr(ctx.real(x), digits)


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
# Oracles
# ---------------------------------------------------------------------------

def agm(a, b, ctx: PrecisionCtx):
    """Common limit of a' = (a+b)/2, b' = sqrt(ab) for positive a, b.

    Iterates until |a - b| < 10^(-working_digits), scaled by the operand
    magnitude when that exceeds 1 (an absolute threshold below one ulp of
    the result is unreachable).  Quadratic convergence: the loop needs
    about log2(working bits) steps; the cap is a safety net.
    """
    mp = ctx.mp
    a = ctx.real(a)
    b = ctx.real(b)
    if a <= 0 or b <= 0:
        raise ValueError("agm requires positive operands")
    tol = ctx.eps * max(mp.mpf(1), a, b)
    # a few linear steps close any exponent gap, then convergence is quadratic
    max_iter = 64 + 4 * int(math.log2(ctx.working_digits + 16))
    for _ in range(max_iter):
        if abs(a - b) < tol:
            return (a + b) / 2
        a, b = (a + b) / 2, mp.sqrt(a * b)
    raise ArithmeticError("AGM iteration failed to converge")


def _gauss_legendre_iterates(mp: MPContext):
    """Successive Gauss-Legendre approximations (a+b)^2 / (4t) to pi."""
    a = mp.mpf(1)
    b = 1 / mp.sqrt(mp.mpf(2))
    t = mp.mpf(1) / 4
    p = mp.mpf(1)
    while True:
        an = (a + b) / 2
        b = mp.sqrt(a * b)
        t -= p * (a - an) ** 2
        a = an
        p *= 2
        yield (a + b) ** 2 / (4 * t)


def pi_reference(ctx: PrecisionCtx):
    """pi via the Gauss-Legendre AGM iteration, computed once per working
    precision.

    This is the package's only source of known pi; in particular it is
    independent of the hypergeometric identities whose checks compare
    against it.
    """
    return _pi(ctx.working_digits)


@lru_cache(maxsize=16)
def _pi(working_digits: int):
    """pi in the mpmath context of these working digits (same key and cache
    rule as _mp_context)."""
    mp = _mp_context(working_digits)
    tol = mp.mpf(10) ** (-working_digits)
    prev = None
    max_iter = int(math.log2(working_digits * 4 + 16)) + 8
    it = _gauss_legendre_iterates(mp)
    for _ in range(max_iter):
        cur = next(it)
        if prev is not None and abs(cur - prev) < tol:
            return cur
        prev = cur
    raise ArithmeticError("Gauss-Legendre iteration failed to converge")
