"""Gauss 2F1 evaluation in the regions the period formulas need.

Two evaluation routes cover every point this package uses:

* direct power series for |z| <= 15/16 (the classical radius the Legendre
  relation needs runs up to lambda = 0.9);
* the Pfaff transformation (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) for
  Re(z) < 0 with |z/(z-1)| <= 1/2, which reaches z = -1.

Anything else raises RegionError; no silent analytic continuation.

One fixed-point kernel, _series, sums every series, with z exactly
(re + i im) / (2^s d) in integers: d = 1 for an mpf or mpc z, and a
Fraction z (the 1/pi identities use z = 1/2 and z = -1, whose Pfaff image
is 1/2) keeps its denominator, so it is never rounded.  The same loop sums
the terms t_k and S1 = sum k t_k, so one pass gives 2F1 and its derivative
S1/z = (ab/c) 2F1(a+1, b+1; c+1; z).  Terms are counted on that derivative
series, whose tail dominates: from a K found in closed form its term ratio
stays below rho = (1+|z|)/2, so the tail after a term t is below
|t| rho / (1-rho), for every rational (a, b; c), and the count comes from K
exact ratios and a bisection on lgamma, not a walk over all terms.  Guard
bits keep the floor roundings of both sums below tail_tol / 2, so each is
within tail_tol = 10^-(working+5) before its one rounding to working
precision.  The Pfaff prefactor is an mpf power.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import RegionError
from .numerics import PrecisionCtx, agm, fixed_point

DIRECT_RADIUS = Fraction(15, 16)
PFAFF_RADIUS = Fraction(1, 2)


class _HypFields(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction


class HypParams(_HypFields):
    """Exact rational parameters (a, b; c) of a 2F1 series."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        self = super().__new__(cls, Fraction(a), Fraction(b), Fraction(c))
        if self.c.denominator == 1 and self.c <= 0:
            raise ValueError("c must not be zero or a negative integer")
        return self

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


def _plan(p: HypParams, log_az: float, ctx: PrecisionCtx):
    """(n, bits): _series sums t_0 ... t_n at a z with log|z| = log_az to
    `bits` fractional bits.

    N counts the derivative series (a', b'; c') = (a+1, b+1; c+1), whose
    terms t'_k = (k+1) t_(k+1) c / (abz) have the dominant tail: with n =
    max(N + 1, |ab/c|) the derivative's tail is |ab/c| times theirs after
    t'_N, and the value's at most |abz/c| / (n+1) times that.  A series
    with a' or b' a non-positive integer -m ends at N = m + 1.  Otherwise
    let K be the first integer past max(-a', -b', -c') and past the larger
    root of the quadratic (rho - |z|) k^2 - B k - C, rho = (1+|z|)/2, that is
    rho (c'+k)(k+1) - |z| (a'+k)(b'+k): for every k >= K each factor is
    positive and |t'_(k+1) / t'_k| < rho.  The first K ratios are walked
    exactly; from K on, log|t'_m| is log|t'_K| plus lgamma differences and
    falls, and bisection finds the first N > max(K, 2) with
    |t'_N| rho / (1-rho) <= tail_tol / 1000, a bound on the tail after t'_N.

    Two floors move each component of term k+1 off the exact product of
    term k and its ratio by less than 2 units of 2^-bits, and the later
    ratios carry that on, multiplied by at most e^growth, the largest rise
    of |t'_k| (reached by K, as the terms fall after it), as
    t_m / t_j = (t'_(m-1) / t'_(j-1)) j / m.  So the sum misses by less than
    3 n^2 e^growth 2^-bits, S1 = sum k t_k by less than 3 n^3 e^growth 2^-bits,
    and S1 / z, floored once more, by less than 4 n^3 e^growth 2^-bits / |z|,
    which `bits` keeps below tail_tol / 2.
    """
    q = p.shifted()
    cap = int(80 * (ctx.working_digits + 10)) + 200  # the most terms before ArithmeticError
    ends = [1 - x for x in (q.a, q.b) if x.denominator == 1 and x <= 0]
    geometric = log_az > -math.inf and not ends
    if not geometric:
        walk = 0 if log_az == -math.inf else int(min(ends)) - 1  # z = 0 leaves one term
    else:
        az = math.exp(log_az)
        rho = (1 + az) / 2
        # the larger root of (rho - |z|) k^2 - B k - C, with slack for its rounding
        B = az * float(q.a + q.b) - rho * float(q.c + 1)
        C = az * float(q.a * q.b) - rho * float(q.c)
        disc = B * B + 4 * (rho - az) * C
        root = (B + math.sqrt(disc)) / (2 * (rho - az)) if disc >= 0 else -1.0
        walk = max(math.floor(-min(q.a, q.b, q.c)) + 1, math.floor(root + 1e-9 * (1 + abs(root))) + 1, 0)
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (q.a, q.b, q.c))
    log_term = low = growth = 0.0
    for k in range(walk if walk < cap else 0):  # else the count exceeds cap anyway
        num, den = (an + k * ad) * (bn + k * bd) * cd, (cn + k * cd) * (k + 1) * ad * bd
        log_term += math.log(abs(num)) - math.log(abs(den)) + log_az
        low = min(low, log_term)
        growth = max(growth, log_term - low)
    count = walk + 1
    if geometric:
        # tail_tol / 1000: 3 digits cover the rounding of the float logarithms
        log_limit = -(ctx.working_digits + 8) * math.log(10) - math.log(rho / (1 - rho))

        # x + walk > 0 may be tiny, so it is summed exactly; x + m > 1 is safe in floats
        at_walk = [(float(x), math.lgamma(x + walk)) for x in (q.a, q.b, q.c, 1)]

        def below_limit(m):  # log|t'_m| <= log_limit, for m > walk
            rise = [math.lgamma(x + m) - at for x, at in at_walk]
            return log_term + (m - walk) * log_az + rise[0] + rise[1] - rise[2] - rise[3] <= log_limit

        count = bisect.bisect_left(range(cap + 1), True, max(count, 3), key=below_limit)
    if count > cap:
        raise ArithmeticError(f"2F1 series did not meet tolerance in {cap} terms")
    n = max(count + 1, math.ceil(abs(p.a * p.b / p.c)))
    # S1 / z needs no division at z = 0, where S1 = 0
    log_inv_z = -log_az if log_az > -math.inf else 0.0
    error_bits = math.log2(4 * n**3) + (growth + log_inv_z) / math.log(2)
    # 2 more bits cover the float rounding of the count
    return n, math.ceil((ctx.working_digits + 5) * math.log2(10) + 1 + error_bits) + 2


def _series(p: HypParams, z, ctx: PrecisionCtx):
    """(value, derivative, n) of the 2F1 series at a Fraction, mpf or mpc z,
    summed in fixed point; both are mpfs for a real z, mpcs for an mpc z.

    z is exactly (zr + i zi) / (2^s d), so with r(k) = (a+k)(b+k)/((c+k)(k+1))
    cleared of denominators each term is one integer product, a shift and a
    division by a small integer, kept to `bits` fractional bits (_plan
    bounds the error); a real z skips the imaginary products.  The same loop
    sums S1 = sum k t_k, and the derivative is S1 / z, formed in integers.
    Each sum is rounded once.
    """
    if not abs(z) < 1:
        raise RegionError(f"series needs |z| < 1, got |z| = {abs(z)}")
    zr, zi, s, d = fixed_point(z)
    norm = zr * zr + zi * zi
    n, bits = _plan(p, math.log(norm) / 2 - s * math.log(2) - math.log(d) if norm else -math.inf, ctx)
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c))
    dd = ad * bd * d
    tr = total_r = 1 << bits
    ti = total_i = s1_r = s1_i = 0
    for k in range(n):
        num = (an + k * ad) * (bn + k * bd) * cd
        den = (cn + k * cd) * (k + 1) * dd
        if zi:
            nr, ni = num * zr, num * zi
            tr, ti = (tr * nr - ti * ni >> s) // den, (tr * ni + ti * nr >> s) // den
            total_i += ti
            s1_i += (k + 1) * ti
        else:
            tr = (tr * (num * zr) >> s) // den
        total_r += tr
        s1_r += (k + 1) * tr
    if zr or zi:
        # S1 / z = S1 (zr - i zi) 2^s d / (zr^2 + zi^2)
        scale = d << s
        dr, di = (s1_r * zr + s1_i * zi) * scale // norm, (s1_i * zr - s1_r * zi) * scale // norm
    else:
        dr, di = math.floor(p.a * p.b / p.c * (1 << bits)), 0  # the derivative ab/c at z = 0
    mp = ctx.mp

    def rounded(re, im):
        x = mp.ldexp(mp.mpf(re), -bits)
        return mp.mpc(x, mp.ldexp(mp.mpf(im), -bits)) if hasattr(z, "_mpc_") else x

    return rounded(total_r, total_i), rounded(dr, di), n


def _hyp2f1_pair(p: HypParams, z, ctx: PrecisionCtx):
    """(2F1(a, b; c; z), its z-derivative) from one series, by the direct
    series or the Pfaff transformation; RegionError outside both regions.

    Through Pfaff, F = (1-z)^(-a) G(w) with w = z/(z-1), so
    F' = (1-z)^(-a-1) (a G(w) - G'(w) / (1-z)).
    """
    zs = _as_scalar(z, ctx)
    if not isinstance(z, Fraction):
        z = zs
    # slack so boundary points computed with working-precision noise
    # (e.g. lambda(i) = 1/2 + O(eps)) still land in their region
    half = ctx.real(PFAFF_RADIUS) * (1 + ctx.zero_tol)
    if abs(zs) > half and zs.real < 0:
        w = z / (z - 1)
        if abs(_as_scalar(w, ctx)) <= half:
            g, dg, _ = _series(HypParams(p.a, p.c - p.b, p.c), w, ctx)
            one_minus_z = _as_scalar(1 - z, ctx)
            prefactor = one_minus_z ** ctx.real(-p.a)
            return prefactor * g, prefactor / one_minus_z * (ctx.real(p.a) * g - dg / one_minus_z)
    if abs(zs) <= ctx.real(DIRECT_RADIUS):
        return _series(p, z, ctx)[:2]
    raise RegionError(
        f"z = {z} outside direct (|z| <= {DIRECT_RADIUS}) and Pfaff "
        "(Re z < 0, |z/(z-1)| <= 1/2) regions"
    )


def hyp2f1(p: HypParams, z, ctx: PrecisionCtx):
    """2F1(a, b; c; z) by direct series or Pfaff transformation; a Fraction z
    is never rounded.  RegionError outside both regions: the caller transforms."""
    return _hyp2f1_pair(p, z, ctx)[0]


def hyp_derivative(p: HypParams, z, ctx: PrecisionCtx):
    """d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), from the weighted sum
    of the same series as the value."""
    return _hyp2f1_pair(p, z, ctx)[1]


def legendre_F(lam, ctx: PrecisionCtx):
    """F(lambda) = 2F1(1/2, 1/2; 1; lambda), the Legendre period factor."""
    return hyp2f1(F_PARAMS, lam, ctx)


def legendre_F_F2(lam, ctx: PrecisionCtx):
    """(F(lambda), F2(lambda)) from one series: F2 = 2F1(3/2, 3/2; 2; lambda)
    = 4 dF/dlambda."""
    F, dF = _hyp2f1_pair(F_PARAMS, lam, ctx)
    return F, 4 * dF


def legendre_F2(lam, ctx: PrecisionCtx):
    """F2(lambda) = 2F1(3/2, 3/2; 2; lambda) = 4 dF/dlambda."""
    return legendre_F_F2(lam, ctx)[1]


def picard_fuchs_residual(lam, ctx: PrecisionCtx):
    """|lam(1-lam) P'' + (1-2 lam) P' - P/4| for P = F(lambda).

    P and P' come from one series, P'' = (1/4) d/dlambda 2F1(3/2, 3/2; 2)
    from a second, so the residual certifies that F solves the second-order
    equation down to series truncation error.
    """
    lam = ctx.real(lam)
    if not (0 < lam <= 0.5):
        raise ValueError("residual check needs lambda in (0, 1/2]; endpoints are singular")
    P, P1 = _hyp2f1_pair(F_PARAMS, lam, ctx)
    P2 = hyp_derivative(F2_PARAMS, lam, ctx) * ctx.real(Fraction(1, 4))
    return abs(lam * (1 - lam) * P2 + (1 - 2 * lam) * P1 - P / 4)


def hyp_via_agm(lam, ctx: PrecisionCtx):
    """Independent oracle: 2F1(1/2,1/2;1;lambda) = 1/agm(1, sqrt(1-lambda)).

    Valid for real lambda < 1 (the package exercises [0, 0.9] and -1).
    """
    lam = ctx.real(lam)
    if lam >= 1:
        raise ValueError("AGM identity needs lambda < 1")
    return 1 / agm(ctx.mp.mpf(1), ctx.mp.sqrt(1 - lam), ctx)
