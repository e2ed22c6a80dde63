"""Gauss 2F1 evaluation in the regions the period formulas need.

Two evaluation routes cover every point this package uses:

* direct power series for |z| <= 15/16 (the classical radius the Legendre
  relation needs runs up to lambda = 0.9);
* the Pfaff transformation (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) for
  Re(z) < 0 with |z/(z-1)| <= 1/2, which reaches z = -1.

Anything else raises RegionError; no silent analytic continuation.

One fixed-point kernel, _series, sums every series, with z as
(re + i im) / (2^s d) in integers: an mpf or mpc z read to twice the
kernel's fractional bits (d = 1), and a Fraction z (the 1/pi identities use
z = 1/2 and z = -1, whose Pfaff image is 1/2) exactly, with its
denominator, so it is never rounded.  The loop sums the derivative series
(DLMF 15.5.1), d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z), as
u_k = t_(k+1) / z with U0 = sum u_k and U1 = sum (k+1) u_k: U1 is the
derivative and 1 + z U0 the value, so one pass gives both.  It goes
_BLOCK terms at a time: at a Fraction z, whose term ratios are small
integer quotients, a block's ratios are combined exactly in small integers
and applied with one big-integer division (_block); at an mpf or mpc z,
whose ratios carry a full-width reading of z, term by term into per-block
sums as narrow as the block's first term.  Terms are counted on that
derivative series, whose tail dominates: from a K found in closed form its
term ratio stays below rho = (1+|z|)/2, so the tail after a term t is below
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
from .numerics import PrecisionCtx, agm, fixed_point, log_abs

DIRECT_RADIUS = Fraction(15, 16)
PFAFF_RADIUS = Fraction(1, 2)
_BLOCK = 64  # terms per block of _series: one division at a Fraction z, narrow sums otherwise


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
    """(n, bits): _series sums u_0 ... u_(n-1), u_k = t_(k+1) / z, at a z with
    log|z| = log_az to `bits` fractional bits.

    N counts the derivative series (a', b'; c') = (a+1, b+1; c+1), whose
    terms t'_k = (k+1) u_k c / (ab) have the dominant tail: with n =
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

    Two floors move each component of u_(k+1) off the exact product of u_k
    and its ratio by less than 2 units of 2^-bits (at a Fraction z, the u
    ending a block off the one before it times the block's ratios, and each
    block's sums by as much, in place of the errors of all its terms:
    _block), and the later ratios carry an error made at u_j on to u_m
    multiplied by |u_m / u_j| = |t'_m / t'_j| (j+1) / (m+1) <= e^growth,
    where growth is the largest rise of log|t'_k| (reached by K, as the
    terms fall after it).  So U0 = sum u_k misses by less than
    2 n^2 e^growth 2^-bits and U1 = sum (k+1) u_k by less than
    4 n^3 e^growth 2^-bits; as |z| < 1, the two floors of 1 + z U0 keep the
    value within the same bound, which `bits` keeps below tail_tol / 2.
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
    error_bits = math.log2(4 * n**3) + growth / math.log(2)
    # 2 more bits cover the float rounding of the count
    return n, math.ceil((ctx.working_digits + 5) * math.log2(10) + 1 + error_bits) + 2


def _block(u: int, k0: int, ratios):
    """(S, W, u') in fixed point for the terms u_k = u_(k-1) num_k / den_k,
    k0 <= k < k1, that follow u = u_(k0-1), with ratios[k - k0] =
    (num_k, den_k) in small integers: S = sum u_k, W = sum (k+1) u_k and
    u' = u_(k1-1), each less than 2 units off its exact value from u.

    Walked backward, Horner-style, in integers of about len(ratios) small
    factors, A / E = r_k0 (1 + r_(k0+1) (1 + ... r_(k1-1))) with
    r_k = num_k / den_k, A1 / E the same with weights k+1 and P / E the
    product of the r_k, where E is the product of the den_k.  One full-width
    division v = floor(u 2^g / E) is off u 2^g / E by less than 1, and with
    2^g above |A|, |A1| and |P| (A exceeds E where the terms grow) that
    moves each of floor(v A / 2^g), floor(v A1 / 2^g) and floor(v P / 2^g)
    by less than 1 unit, its own floor by less than 1 more.
    """
    a = a1 = 0
    e = prod = 1
    for j in range(len(ratios) - 1, -1, -1):
        num, den = ratios[j]
        a, a1, e, prod = num * (e + a), num * ((k0 + j + 1) * e + a1), den * e, prod * num
    g = max(abs(a), abs(a1), abs(prod)).bit_length()
    v = (u << g) // e
    return v * a >> g, v * a1 >> g, v * prod >> g


def _series(p: HypParams, z, ctx: PrecisionCtx):
    """(value, derivative, n) of the 2F1 series at a Fraction, mpf or mpc z,
    summed in fixed point; both are mpfs for a real z, mpcs for an mpc z.

    z is read as (zr + i zi) / (2^s d), so with u_0 = ab/c and
    u_k = u_(k-1) z (a+k)(b+k)/((c+k)(k+1)) cleared of denominators each
    ratio is num_k zr / (den_k 2^s d) with num_k and den_k small integers,
    and the terms are kept to `bits` fractional bits (_plan bounds the
    error).  They are summed in blocks k0 <= k < k1 of _BLOCK terms into
    U0 = sum u_k and U1 = sum (k+1) u_k.  The value is 2^bits + z U0, formed
    with that z and floored once per component.  Each is rounded once.

    A Fraction z has s = 0, as 2^s joins d, and _block sums each block from
    its first u with one big-integer division: u_(k1-1) and the block's two
    sums are each less than 2 units off their exact values from u_(k0-1).
    Term by term, two floors move each component of u_k by as much, and
    each sum takes the errors of all the block's terms.  An error carried in
    u moves on through the later (exact) ratios as it does term by term, so
    _plan's bound holds.

    An mpf or mpc z carries a full-width zr, so each term is one integer
    product, a shift and a division by a small integer, and a real z skips
    the imaginary products.  The terms of a block go into S = sum u_k and
    W = sum of the running S, as narrow as u_k0, and at its end U0 += S and
    U1 += (k1+1) S - W = sum (k+1) u_k: two narrow additions per term, and
    U0 and U1 are the integers of per-term sums.

    An mpf or mpc z is read to 2^-2bits (numerics.fixed_point), so no
    integer grows with the gap between its parts.  Each part moves toward 0
    by less than 2^-2bits, so every w between z and its reading has
    |w| <= |z|, |t'_k(w)| <= e^growth and, for k >= 1,
    |t'_k(w) / w| <= e^growth m, m = min(A, 1/|z|) with
    A = |(a+1)(b+1)/(c+1)| = |t'_1(w) / w|.  The value, whose derivative is
    U1 = (ab/c) sum t'_k, moves by less than n^2 e^growth 2^(1/2-2bits), and
    U1, whose derivative is (ab/c) sum k t'_k / w, by less than
    n^3 e^growth m 2^(-1/2-2bits): each under a quarter of the floor bound
    4 n^3 e^growth 2^-bits where m <= 2^bits, i.e. where |z| >= 2^-bits or
    A <= 2^bits (A is at most 25/12 for the package's parameters).
    """
    if not abs(z) < 1:
        raise RegionError(f"series needs |z| < 1, got |z| = {abs(z)}")
    n, bits = _plan(p, log_abs(z), ctx)
    zr, zi, s, d = fixed_point(z, 2 * bits)
    if isinstance(z, Fraction):  # 2^s joins the divisor: no shift
        s, d = 0, d << s
    (an, ad), (bn, bd), (cn, cd) = (f.as_integer_ratio() for f in (p.a, p.b, p.c))
    dd = ad * bd * d
    ur = sum_r = deriv_r = (an * bn * cd << bits) // (ad * bd * cn)
    ui = sum_i = deriv_i = 0
    for k0 in range(1, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        if isinstance(z, Fraction):
            sr, wr, ur = _block(ur, k0, [((an + k * ad) * (bn + k * bd) * cd * zr, (cn + k * cd) * (k + 1) * dd)
                                         for k in range(k0, k1)])
            sum_r, deriv_r = sum_r + sr, deriv_r + wr
            continue
        sr = wr = si = wi = 0  # the block's sum of u_k and sum of its running sums
        for k in range(k0, k1):
            num = (an + k * ad) * (bn + k * bd) * cd
            den = (cn + k * cd) * (k + 1) * dd
            if zi:
                nr, ni = num * zr, num * zi
                ur, ui = (ur * nr - ui * ni >> s) // den, (ur * ni + ui * nr >> s) // den
                si += ui
                wi += si
            else:
                ur = (ur * (num * zr) >> s) // den
            sr += ur
            wr += sr
        sum_r, deriv_r = sum_r + sr, deriv_r + (k1 + 1) * sr - wr
        sum_i, deriv_i = sum_i + si, deriv_i + (k1 + 1) * si - wi
    value_r = (1 << bits) + (sum_r * zr - sum_i * zi >> s) // d
    value_i = (sum_r * zi + sum_i * zr >> s) // d
    vr, vi, dr, di = (ctx.mp.ldexp(ctx.mp.mpf(x), -bits) for x in (value_r, value_i, deriv_r, deriv_i))
    if hasattr(z, "_mpc_"):
        return ctx.mp.mpc(vr, vi), ctx.mp.mpc(dr, di), n
    return vr, dr, n


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
