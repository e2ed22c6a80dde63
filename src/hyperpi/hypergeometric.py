"""Gauss 2F1 evaluation in the regions the period formulas need.

Two evaluation routes cover every point this package uses:

* direct power series for |z| <= 15/16 (the classical radius the Legendre
  relation needs runs up to lambda = 0.9);
* the Pfaff transformation (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) for
  Re(z) < 0 with |z/(z-1)| <= 1/2, which reaches z = -1.

Anything else raises RegionError; no silent analytic continuation.
Derivatives come from the contiguous relation
d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), which is exact.

Each route sums its series one of two ways, chosen by the type of z.  A
Fraction z (the 1/pi identities use z = 1/2 and z = -1) is summed exactly
by binary splitting over Python integers (Haible & Papanikolaou, 1998) and
rounded once; its Pfaff image z/(z-1) is again a Fraction.  Any other z
becomes an mpf or mpc, which is exactly an integer (pair) over 2^s, and is
summed in fixed-point integers with enough guard bits that the per-term
floor roundings stay below tail_tol / 2.  Both ways sum the number of terms
_term_count fixes, so the truncated tail and the rounding together stay
below tail_tol = 10^-(working+5) before the one final rounding to working
precision.  The Pfaff prefactor is an mpf power either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RegionError
from .numerics import PrecisionCtx, agm

DIRECT_RADIUS = Fraction(15, 16)
PFAFF_RADIUS = Fraction(1, 2)


@dataclass(frozen=True)
class HypParams:
    """Exact rational parameters (a, b; c) of a 2F1 series."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.c.denominator == 1 and self.c <= 0:
            raise ValueError("c must not be zero or a negative integer")

    def shifted(self) -> "HypParams":
        return HypParams(self.a + 1, self.b + 1, self.c + 1)


F_PARAMS = HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1))
F2_PARAMS = HypParams(Fraction(3, 2), Fraction(3, 2), Fraction(2))


def _as_scalar(z, ctx: PrecisionCtx):
    """mpf for real-valued input, mpc otherwise."""
    if hasattr(z, "_mpc_") or isinstance(z, complex):
        zc = ctx.complex(z)
        return zc.real if zc.imag == 0 else zc
    return ctx.real(z)


def _fixed(z):
    """Integers (re, im, s) with z = (re + i im) / 2^s exactly, for an mpf or mpc z."""
    parts = [x._mpf_ for x in (z.real, z.imag)]
    # mpmath's zero is (0, 0, 0, 0): only nonzero parts set the exponent
    s = max([-exp for _, man, exp, _ in parts if man] + [0])
    re, im = ((-man if sign else man) << (exp + s) for sign, man, exp, _ in parts)
    return re, im, s


def _log_abs(z) -> float:
    """log|z| of a Fraction, mpf or mpc from its exact integers, so that it
    never underflows a float; -inf at zero."""
    if isinstance(z, Fraction):
        num = abs(z.numerator)
        return math.log(num) - math.log(z.denominator) if num else -math.inf
    re, im, s = _fixed(z)
    sq = re * re + im * im
    return math.log(sq) / 2 - s * math.log(2) if sq else -math.inf


def _max_terms(ctx: PrecisionCtx) -> int:
    """Most terms either route sums before it gives up with ArithmeticError."""
    return int(80 * (ctx.working_digits + 10)) + 200


# Terms are counted from float logarithms; this many extra digits of tail
# bound cover their rounding.
_COUNT_MARGIN_DIGITS = 3


def _term_count(p: HypParams, z, ctx: PrecisionCtx):
    """(n, growth) for the series at z: n is the first count >= 3 whose last
    term ratio is below rho = (1+|z|)/2 and whose last term has
    |term_n| rho/(1-rho) <= tail_tol * 10^-margin; growth is the natural log
    of the largest |term_k / term_j| over j <= k <= n.

    Both routes sum exactly n terms, and the fixed-point route takes its
    guard bits from n and growth.  The geometric tail bound is rigorous when
    the parameter factor of the term ratio does not rise again after n,
    which holds for the parameter sets used here.  Everything runs on float
    logarithms, so it costs no big-number work.
    """
    log_az = _log_abs(z)
    if log_az == -math.inf:
        return 1, 0.0  # z = 0: the terms after the first vanish
    rho = (1 + math.exp(log_az)) / 2
    # strict, with slack, so float rounding never admits a ratio above rho
    log_ratio_limit = math.log(rho) - 1e-9
    log_limit = -(ctx.working_digits + 5 + _COUNT_MARGIN_DIGITS) * math.log(10) - math.log(rho / (1 - rho))
    a, b, c = float(p.a), float(p.b), float(p.c)
    log_term = low = growth = 0.0
    for n in range(_max_terms(ctx)):
        ratio = abs((a + n) * (b + n) / ((c + n) * (n + 1)))
        if ratio == 0:
            # a terminating series (a or b = -n): later terms vanish
            return n + 1, growth
        log_ratio = math.log(ratio) + log_az
        log_term += log_ratio
        if log_term < low:
            low = log_term
        elif log_term - low > growth:
            growth = log_term - low
        if log_term <= log_limit and log_ratio < log_ratio_limit and n >= 2:
            return n + 1, growth
    raise ArithmeticError(f"2F1 series did not meet tolerance in {_max_terms(ctx)} terms")


def _series(p: HypParams, z, ctx: PrecisionCtx):
    """The 2F1 series at an mpf or mpc z in fixed point; returns (value, terms_used),
    the value an mpf for an mpf z.

    z is exactly (zr + i zi) / 2^s, so with r(k) = (a+k)(b+k)/((c+k)(k+1))
    cleared of denominators each term is one integer product, a shift and a
    division by a small integer, kept to `bits` fractional bits; the terms
    are summed in an integer and rounded once.  Two floors move term k+1 off
    the exact product of term k and its ratio by less than 2 units of
    2^-bits per component (2 sqrt 2 in modulus), and the later ratios carry
    that error on: into term m it arrives multiplied by term_m / term_(k+1),
    at most e^growth.  So the n terms differ from their exact sum by less
    than 3 n^2 e^growth 2^-bits, and `bits` makes that at most tail_tol / 2.
    With the truncated tail (below tail_tol / 1000) the sum is then within
    tail_tol of 2F1 before its final rounding.
    """
    if not abs(z) < 1:
        raise RegionError(f"series needs |z| < 1, got |z| = {abs(z)}")
    n, growth = _term_count(p, z, ctx)
    error_bits = math.log2(3 * n * n) + growth / math.log(2)
    # 2 more bits cover the float rounding of the count loop
    bits = math.ceil((ctx.working_digits + 5) * math.log2(10) + 1 + error_bits) + 2
    zr, zi, s = _fixed(z)
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c))
    dd = ad * bd
    tr = total_r = 1 << bits
    ti = total_i = 0  # stays 0 for a real z
    for k in range(n):
        num = (an + k * ad) * (bn + k * bd) * cd
        den = (cn + k * cd) * (k + 1) * dd
        tr, ti = tr * num, ti * num
        tr, ti = (tr * zr - ti * zi >> s) // den, (tr * zi + ti * zr >> s) // den
        total_r += tr
        total_i += ti
    mp = ctx.mp
    value = mp.ldexp(mp.mpf(total_r), -bits)
    if hasattr(z, "_mpc_"):
        return mp.mpc(value, mp.ldexp(mp.mpf(total_i), -bits)), n
    return value, n


def _bsplit(p: HypParams, z: Fraction, n: int):
    """Integers (P, Q, T) with T/Q = sum over 1 <= m <= n of the 2F1 terms
    r(0)...r(m-1), where r(k) = (a+k)(b+k) z / ((c+k)(k+1)) is cleared of
    denominators, and P/Q = r(0)...r(n-1).  Each half of a range is split
    again, so the products are of balanced size."""
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c))
    num_factor = cd * z.numerator
    den_factor = ad * bd * z.denominator

    def split(n0, n1):
        if n1 - n0 == 1:
            num = (an + n0 * ad) * (bn + n0 * bd) * num_factor
            return num, (cn + n0 * cd) * (n0 + 1) * den_factor, num
        m = (n0 + n1) // 2
        P1, Q1, T1 = split(n0, m)
        P2, Q2, T2 = split(m, n1)
        return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2

    return split(0, n)


def _exact_series(p: HypParams, z: Fraction, ctx: PrecisionCtx):
    """The 2F1 series at rational z by binary splitting; returns (value, terms_used).

    The first N terms (N from _term_count) sum exactly to 1 + T/Q, which is
    rounded once, through one integer division, to 2^-bits.  T and Q never
    become mpfs.
    """
    n, _ = _term_count(p, z, ctx)
    _, Q, T = _bsplit(p, z, n)
    bits = ctx.mp.prec + 32
    # A bits-bit quotient needs only the leading bits of Q; dropping the rest
    # keeps the division from growing with Q and adds an error of at most
    # (1 + |value|) 2^-(bits+31).
    shift = max(0, Q.bit_length() - bits - 32)
    man = (((Q + T) >> shift) << bits) // (Q >> shift)
    return ctx.mp.ldexp(ctx.mp.mpf(man), -bits), n


def hyp2f1(p: HypParams, z, ctx: PrecisionCtx):
    """2F1(a, b; c; z) by direct series or Pfaff transformation.

    A Fraction z is summed exactly (binary splitting), any other z in
    fixed-point integers; the regions are the same for both.  Raises
    RegionError outside the two regions; the caller must transform.
    """
    zs = _as_scalar(z, ctx)
    if isinstance(z, Fraction):
        series = _exact_series
    else:
        series, z = _series, zs
    az = abs(zs)
    # slack so boundary points computed with working-precision noise
    # (e.g. lambda(i) = 1/2 + O(eps)) still land in their region
    half = ctx.real(PFAFF_RADIUS) * (1 + ctx.zero_tol)
    if az <= half:
        return series(p, z, ctx)[0]
    if zs.real < 0:
        w = z / (z - 1)
        if abs(_as_scalar(w, ctx)) <= half:
            value, _ = series(HypParams(p.a, p.c - p.b, p.c), w, ctx)
            return (1 - zs) ** ctx.real(-p.a) * value
    if az <= ctx.real(DIRECT_RADIUS):
        return series(p, z, ctx)[0]
    raise RegionError(
        f"z = {z} outside direct (|z| <= {DIRECT_RADIUS}) and Pfaff "
        "(Re z < 0, |z/(z-1)| <= 1/2) regions"
    )


def hyp_derivative(p: HypParams, z, ctx: PrecisionCtx):
    """d/dz 2F1(a,b;c;z) via the contiguous relation (exact shift)."""
    factor = p.a * p.b / p.c
    return ctx.real(factor) * hyp2f1(p.shifted(), z, ctx)


def legendre_F(lam, ctx: PrecisionCtx):
    """F(lambda) = 2F1(1/2, 1/2; 1; lambda), the Legendre period factor."""
    return hyp2f1(F_PARAMS, lam, ctx)


def legendre_F2(lam, ctx: PrecisionCtx):
    """F2(lambda) = 2F1(3/2, 3/2; 2; lambda) = 4 dF/dlambda."""
    return hyp2f1(F2_PARAMS, lam, ctx)


def picard_fuchs_residual(lam, ctx: PrecisionCtx):
    """|lam(1-lam) P'' + (1-2 lam) P' - P/4| for P = F(lambda).

    Both derivatives go through the contiguous relation (P'' uses it
    twice), so the residual certifies that F solves the second-order
    equation down to series truncation error.
    """
    lam = ctx.real(lam)
    if not (0 < lam <= 0.5):
        raise ValueError("residual check needs lambda in (0, 1/2]; endpoints are singular")
    P = hyp2f1(F_PARAMS, lam, ctx)
    P1 = hyp_derivative(F_PARAMS, lam, ctx)
    P2 = hyp_derivative(F_PARAMS.shifted(), lam, ctx) * ctx.real(Fraction(1, 4))
    return abs(lam * (1 - lam) * P2 + (1 - 2 * lam) * P1 - P / 4)


def hyp_via_agm(lam, ctx: PrecisionCtx):
    """Independent oracle: 2F1(1/2,1/2;1;lambda) = 1/agm(1, sqrt(1-lambda)).

    Valid for real lambda < 1 (the package exercises [0, 0.9] and -1).
    """
    lam = ctx.real(lam)
    if lam >= 1:
        raise ValueError("AGM identity needs lambda < 1")
    return 1 / agm(ctx.mp.mpf(1), ctx.mp.sqrt(1 - lam), ctx)
