"""q-series engines: Dedekind eta, Eisenstein E2/E4/E6, the discriminant and
the modular lambda function, at any tau in the upper half-plane.

tau_point reduces tau exactly, once, to tau0 in the fundamental domain, where
Im tau0 >= sqrt(3)/2 and |q| < 0.0044, and forms the nome of tau0.  Each
public function sums its series there and maps the value back along
tau = (a tau0 + b)/(c tau0 + d) by the transformation laws in its docstring
(Apostol, Modular Functions and Dirichlet Series, ch. 1 and 3).  eta, Delta
and lambda sum the pentagonal series P(y) = prod (1 - y^m), one pass giving
P(y) and P(-y); lambda takes two passes, at x = q^(1/2) and at q.  By
P(x) P(-x) = P(x^2)^3 / P(x^4) (Borwein & Borwein 1987, ch. 3-4),

    lambda = 16 x P(x)^8 P(x^4)^16 / P(x^2)^24 = 16 x P(q)^24 / (P(x)^8 P(-x)^16)
           = 16 x - 128 x^2 + 704 x^3 - ...

E2, E4 and E6 come together from one fixed-point pass over their power series
1 + c_k sum sigma_(k-1)(n) q^n with a stated tail bound.  s2 = (E4/E6)(E2 -
3/(pi Im tau)) has weight 0 and its bracket weight 2, so both are summed at
tau0 from that pass, with no law for E2.  Where E2's law or s2 cancels
digits, one helper makes the pass again at a widened precision.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

from .errors import IndeterminateFormError, ReductionError
from .numerics import (PrecisionCtx, _long_exponent, _tail_bits, ctx_new, exact_mpf, fixed_point, fixed_point_bits,
                       log_abs, pi_reference)

MAX_INVERSIONS = 1000  # reduce_tau's cap
MAX_EXACT_BITS = 1 << 24  # tau_point's cap on the width of tau's exact integers


class TransformWord(namedtuple("TransformWord", "letters")):
    """Runs (letter, count) that map the reduced point back to the original
    one, first run first: ("T", m) is tau -> tau + m for an integer m, and
    ("S", n) is tau -> -1/tau applied n times."""

    __slots__ = ()

    def __new__(cls, letters):
        for letter, count in letters:
            if letter not in ("T", "S") or not isinstance(count, int):
                raise ValueError(f"not a run: {(letter, count)!r}")
        return super().__new__(cls, letters)

    def apply_to_lambda(self, lam):
        """(lambda, 1 - lambda) at the word's point, from lambda at the
        reduced one."""
        # Carry the pair (x, 1-x): S swaps it, and T^m acts as x -> x/(x-1),
        # i.e. (x, y) -> (-x/y, 1/y).  Both are involutions on lambda, so a run
        # acts once when its length is odd.  No step subtracts nearly equal
        # numbers, so both keep their relative precision near the cusps.
        x, y = lam, 1 - lam
        for letter, count in self.letters:
            if count % 2:
                x, y = (-x / y, 1 / y) if letter == "T" else (y, x)
        return x, y

    def matrix(self):
        """(a, b, c, d) with ad - bc = 1 and word(tau) = (a tau + b)/(c tau + d)."""
        a, b, c, d = 1, 0, 0, 1
        for letter, count in self.letters:
            if letter == "T":
                a, b = a + count * c, b + count * d
            elif count % 2:
                a, b, c, d = -c, -d, a, b
        return a, b, c, d


class TauPoint(namedtuple("TauPoint", "tau word reduced tau0 x q real_q")):
    """tau (rounded to ctx) and its reduction: word maps tau0 = (re + i im)/den,
    `reduced` = (re, im, den) in exact integers, from the fundamental domain
    back to tau; x = e^(pi i tau0) and q = x^2 are the nome of tau0, not of
    tau.  real_q: 2 Re(tau) is an integer, so q(tau) is real, and so are
    E_k, Delta and s2."""

    __slots__ = ()


def tau_point(tau, ctx: PrecisionCtx) -> TauPoint:
    """tau reduced once.  An mpc is read with all its bits (any other type at
    ctx), so f(tau) is f at that binary tau; rounding a decimal tau moves tau0
    by up to |tau| max(1, Im(tau)^-2) times the error (see cli._run_eval)."""
    return _point(tau, ctx, reduce=True)


def _raw_point(tau, ctx: PrecisionCtx) -> TauPoint:
    """tau unreduced, with its own nome: the law checks sum the kernels there."""
    return _point(tau, ctx, reduce=False)


def _point(tau, ctx: PrecisionCtx, reduce: bool) -> TauPoint:
    """The exact integers of tau are as wide as the gap between its parts;
    past MAX_EXACT_BITS (a gap of about 5 million decimal digits) the point
    is refused with a ReductionError before they are formed."""
    tau = tau if hasattr(tau, "_mpc_") else ctx.complex(tau)
    width = fixed_point_bits(tau)
    if width > MAX_EXACT_BITS:
        raise ReductionError(f"the exact reduction of tau needs integers of at least 2^{width.bit_length() - 1} "
                             f"bits, past the cap of 2^{MAX_EXACT_BITS.bit_length() - 1}: its two parts differ "
                             "too much in size")
    re, im, s, _ = fixed_point(tau)
    if im <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    den = 1 << s
    reduced, word = reduce_tau(re, im, den) if reduce else ((re, im, den), TransformWord(()))
    tau0, x = _nome(*reduced, ctx)
    tau = ctx.mp.mpc(_quotient(re, den, ctx.mp), _quotient(im, den, ctx.mp))
    return TauPoint(tau, word, reduced, tau0, x, x * x, 2 * re % den == 0)


def _quotient(n: int, den: int, mp):
    """mp.mpf(n) / den, with both integers converted in time linear in their size."""
    return +exact_mpf(n, mp) / exact_mpf(den, mp)


def _nome(re: int, im: int, den: int, ctx: PrecisionCtx):
    """(tau0, x = e^(pi i tau0)) at ctx for tau0 = (re + i im)/den: x takes
    Re(tau0) mod 2 exactly and pi Im(tau0) with the digits of Im(tau0) added,
    so it keeps its relative precision at any height.  Where 2 Re(tau0) is an
    integer x is |x| = e^(-pi Im(tau0)) times 1, i, -1 or -i, with exact zero
    parts: q = x^2 is real, and P(y) and the Eisenstein pass take one part.
    Where even |x|^(1/12), the least power of x that eta, lambda and Delta
    carry, cannot be printed (_long_power), 0 stands for x: E_k and s2 read it
    as they would x, below their resolution, and those three raise ValueError."""
    mp = ctx.mp
    tau0 = mp.mpc(_quotient(re, den, mp), _quotient(im, den, mp))
    if _long_power(im, den, 1 / 12):
        return tau0, mp.zero
    r = re % (2 * den)
    wide = ctx_new(ctx.target_digits + math.ceil((im // den).bit_length() * math.log10(2)))
    w, pi = wide.mp, pi_reference(wide)
    if 2 * r % den:
        x = ctx.complex(w.exp(w.mpc(0, pi) * w.mpc(exact_mpf(r, w), exact_mpf(im, w)) / exact_mpf(den, w)))
    else:
        modulus = ctx.real(w.exp(-pi * exact_mpf(im, w) / exact_mpf(den, w)))
        x = (modulus, mp.mpc(0, modulus), -modulus, mp.mpc(0, -modulus))[2 * r // den]
    return tau0, x


def _long_power(im: int, den: int, power: float) -> str:
    """numerics._long_exponent for |x|^power = 2^(-power pi Im(tau0) / ln 2), Im(tau0) = im/den."""
    return _long_exponent(math.log10(power * math.pi / math.log(2)) + math.log10(im) - math.log10(den))


def _rounded(value, t: TauPoint, ctx: PrecisionCtx):
    """value at ctx; an mpf where q(tau) is real, as are E_k, Delta, s2 and j."""
    value = ctx.complex(value)
    return value.real if t.real_q else value


def reduce_tau(re: int, im: int, den: int):
    """((re0, im0, den0), word): tau0 = (re0 + i im0)/den0, |Re tau0| <= 1/2,
    |tau0| >= 1, word(tau0) = tau = (re + i im)/den, by shifts to the nearest
    integer and inversions.  The point is A/C, A = a (re + i im) + b den,
    C = c (re + i im) + d den, ad - bc = 1: no step rounds, and a shift of any
    size is one run.  Each inversion from Im <= 1/2 at least doubles Im, so
    the ReductionError past MAX_INVERSIONS comes only below Im tau = 1e-300."""
    ar, ai, cr, ci = re, im, den, 0  # A = ar + i ai, C = cr + i ci
    runs = []  # the inverse of each move
    for _ in range(MAX_INVERSIONS + 1):
        norm = cr * cr + ci * ci
        shift = (2 * (ar * cr + ai * ci) + norm) // (2 * norm)  # nearest integer to Re(A/C)
        if shift:
            ar, ai = ar - shift * cr, ai - shift * ci
            runs.append(("T", shift))
        if ar * ar + ai * ai >= norm:
            break
        ar, ai, cr, ci = -cr, -ci, ar, ai  # A/C -> -C/A
        runs.append(("S", 1))
    else:
        raise ReductionError(f"reduction to the fundamental domain took more than {MAX_INVERSIONS} inversions")
    # tau0 = (A conj C)/|C|^2, and Im(A conj C) = (ad - bc) im den
    return (ar * cr + ai * ci, ai * cr - ar * ci, norm), TransformWord(tuple(reversed(runs)))


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def _pentagonal_count(y, ctx: PrecisionCtx) -> int:
    """N, the last n _euler sums at y: the first n with n(3n-1)/2 > log(tail_tol) / log|y|,
    so that |y|^(N(3N-1)/2) < tail_tol; 0 when |y| < tail_tol, where even the first term is below it."""
    ratio = (ctx.working_digits + 5) * math.log(10) / -log_abs(y)
    return math.floor((1 + math.sqrt(1 + 24 * ratio)) / 6) + 1 if ratio >= 1 else 0


def _euler(y, ctx: PrecisionCtx):
    """(P(y), P(-y)) from one pass, Euler's P(y) = prod (1 - y^m) =
    sum_{n in Z} (-1)^n y^(n(3n-1)/2) over |n| <= N = _pentagonal_count(y, ctx).
    Later exponents start at (N+1)(3N+2)/2 and rise by at least 1, so the tail
    is at most 2 |y|^((N+1)(3N+2)/2) / (1 - |y|).  The term y^e of P(-y) is
    (-1)^e times that of P(y), so the terms of even and of odd e are summed
    apart, each exactly and rounded once (mp.fsum), and P(+-y) = even +- odd:
    the same powers as P(y) alone, and as |-y| = |y| the same N and tail
    bound.  Both exactly 1 when N = 0."""
    mp = ctx.mp
    terms = ([mp.mpf(1)], [])  # the signed terms of even and of odd exponent
    for n in range(1, _pentagonal_count(y, ctx) + 1):
        low = n * (3 * n - 1) // 2
        for e in (low, low + n):
            terms[e % 2].append(-y ** e if n % 2 else y ** e)
    even, odd = mp.fsum(terms[0]), mp.fsum(terms[1])
    return even + odd, even - odd


def _nome_root(t: TauPoint, ctx: PrecisionCtx):
    """q^(1/24) = e^(pi i Re(tau0)/12) |x|^(1/12) at the nome of tau0: the
    modulus keeps the relative precision of x, and the value is real at
    Re(tau0) = 0.  ValueError where 0 stands for x (_nome)."""
    if not t.x:
        raise ValueError(_long_power(*t.reduced[1:], 1 / 12))
    mp = ctx.mp
    root = mp.root(abs(t.x), 12)
    if t.tau0.real:
        root *= mp.expjpi(t.tau0.real / 12)
    return root


def _eta_series(t: TauPoint, ctx: PrecisionCtx):
    """eta(tau0) = q^(1/24) P(q) summed at the nome of tau0."""
    return _nome_root(t, ctx) * _euler(t.q, ctx)[0]


def eta(t: TauPoint, ctx: PrecisionCtx):
    """eta at any tau: the series at tau0, then the word run by run by
    eta(w + m) = e^(pi i m/12) eta(w) (m mod 24) and the principal
    eta(-1/w) = sqrt(-i w) eta(w), w the current point."""
    mp = ctx.mp
    value, w = _eta_series(t, ctx), t.tau0
    for letter, count in t.word.letters:
        if letter == "T":
            value *= mp.expjpi(mp.mpf(count % 24) / 12)
            w += count
        elif count % 2:
            value *= mp.sqrt(mp.mpc(0, -1) * w)
            w = -1 / w
    return value


# ---------------------------------------------------------------------------
# Eisenstein series
# ---------------------------------------------------------------------------

_EISENSTEIN = {2: -24, 4: 240, 6: -504}


def _lambert_count(log_r: float, ctx: PrecisionCtx) -> int:
    """N, the last n the Eisenstein pass sums at |q| = r = e^(log_r).

    As sigma_(k-1)(n) <= sigma_5(n) <= zeta(5) n^5 < 1.04 n^5 and |c_k| <= 504,
    k = 6 bounds all three weights.  For N >= 5 / ln(1/r) the ratios
    ((n+1)/n)^5 r of successive n^5 r^n past N are at most
    rho = ((N+2)/(N+1))^5 r < 1, so the tail past N is at most
    1.04 (N+1)^5 r^(N+1) / (1-rho).  N is the first n >= max(1, 5 / ln(1/r))
    at which 504 times that is at most tail_tol / 2000, found by doubling and
    bisection (the bound falls with n there); 3 digits cover the float logs.
    """
    r = math.exp(log_r)
    log_limit = -(ctx.working_digits + 8) * math.log(10) - math.log(2 * 504)

    def below_limit(n):
        rho = ((n + 2) / (n + 1)) ** 5 * r
        return 5 * math.log(n + 1) + (n + 1) * log_r + math.log(1.04 / (1 - rho)) <= log_limit

    low = high = max(1, math.ceil(5 / -log_r))
    while not below_limit(high):
        high *= 2
    return bisect.bisect_left(range(high + 1), True, low, key=below_limit)


def _eisenstein_series(q, ctx: PrecisionCtx):
    """(E2, E4, E6) summed at the nome q in one pass over their power series

        E_k = 1 + c_k S_k,  S_k = sum_(n=1..N) sigma_(k-1)(n) q^n,  (c_2, c_4, c_6) = (-24, 240, -504),

    in fixed-point integers with `bits` fractional bits.  N is fixed before
    the loop (_lambert_count), so that the tail past N is within tail_tol / 2
    for every k.  q is read once, to q~ (numerics.fixed_point: each part
    truncated toward 0 to `bits` fractional bits, so no integer grows with
    the gap between them), and q~^n is carried by one integer product per
    term, three for a complex q.  The divisor sums are taken in the other
    order, S_k = sum_(d<=N) d^(k-1) sum_(m<=N/d) q~^(dm), the inner sums one
    slice of the powers each and shared by the three k: exact integers.

    Guard bits.  With u = 2^-bits each floor moves a complex value by less
    than 2u; r below stands for max(|q|, |q~|), which the float |q| of the
    sizing misses by far less than its 2 slack bits cover.  The power q~^n
    misses q^n by e_n with e_(n+1) < r e_n + |q|^n 2u + 2u, so e_n < 4u / (1-r),
    and E_k misses by |c_k| sum sigma_(k-1)(n) e_n < 504 * 1.04 N^6 4u / (1-r)
    < 2^12 N^6 u / (1-r) (_lambert_count's bounds), which `bits` keeps below
    tail_tol / 2.  2^bits + c_k S_k is an exact integer, rounded once.
    """
    log_r = log_abs(q)
    n_terms = _lambert_count(log_r, ctx)
    # _tail_bits' 2 slack bits cover the float rounding of these error bits and r
    bits = _tail_bits(ctx, 12 + 6 * math.log2(n_terms) - math.log2(1 - math.exp(log_r)))
    qr, qi, s, _ = fixed_point(q, bits)
    one = 1 << bits
    qr, qi = qr << bits - s, qi << bits - s
    q_sum, q_diff = qr + qi, qi - qr
    powers = [(one, 0)]  # q~^n for n = 0..N
    for _ in range(n_terms):
        qnr, qni = powers[-1]
        k1 = qr * (qnr + qni)  # (qnr + i qni)(qr + i qi) in three products, in one for a real q
        powers.append(((k1 - qni * q_sum) >> bits, (k1 + qnr * q_diff) >> bits) if qi else (k1 >> bits, 0))
    inner = [[sum(part[d::d]) for d in range(1, n_terms + 1)] for part in zip(*powers)]  # real, imaginary
    sums = [[c * sum(d ** (k - 1) * v for d, v in enumerate(part, 1)) for part in inner]
            for k, c in _EISENSTEIN.items()]
    mp = ctx.mp
    return tuple(mp.mpc(mp.ldexp(mp.mpf(one + re), -bits), mp.ldexp(mp.mpf(im), -bits)) for re, im in sums)


def _widened_series(t: TauPoint, ctx: PrecisionCtx, lost: int):
    """(wide, tau0, (E2, E4, E6)) for a value that cancels `lost` digits: the pass
    again at wide, ctx's target grown by those digits, at tau0's nome formed anew."""
    wide = ctx_new(ctx.target_digits + lost)
    tau0, x = _nome(*t.reduced, wide)
    return wide, tau0, _eisenstein_series(x * x, wide)


def eisenstein_all(t: TauPoint, ctx: PrecisionCtx):
    """(E2, E4, E6) at any tau from one pass at tau0, times (c tau0 + d)^k,
    plus 6c (c tau0 + d)/(pi i) for E2: mpfs where 2 Re(tau) is an integer,
    mpcs otherwise.  Where E2's larger term exceeds max(1, |E2|) by a digit or
    more, all three are computed again with the digits lost added
    (_widened_series), so E2 keeps its precision relative to max(1, |E2|)."""
    _, _, c, d = t.word.matrix()
    wide, tau0, (e2, e4, e6) = ctx, t.tau0, _eisenstein_series(t.q, ctx)
    while True:
        mp = wide.mp
        j = c * tau0 + d  # +-1 where c = 0, so that E_k(tau) = E_k(tau0)
        j2 = j * j
        head, tail = j2 * e2, 6 * c * j / (mp.mpc(0, 1) * pi_reference(wide))
        lost = (max(mp.mag(head), mp.mag(tail)) - max(1, mp.mag(head + tail))) * math.log10(2)
        if lost < 1 or wide is not ctx:
            return tuple(_rounded(v, t, ctx) for v in (head + tail, j2 * j2 * e4, j2 * j2 * j2 * e6))
        wide, tau0, (e2, e4, e6) = _widened_series(t, ctx, math.ceil(lost))


def eisenstein(k: int, t: TauPoint, ctx: PrecisionCtx):
    """E_k(tau) for k in {2, 4, 6}, read from eisenstein_all."""
    if k not in _EISENSTEIN:
        raise ValueError("k must be one of 2, 4, 6")
    return eisenstein_all(t, ctx)[k // 2 - 1]


def weierstrass_g2_g3(t: TauPoint, ctx: PrecisionCtx):
    """(g2, g3) of the lattice Z + Z tau: (4 pi^4 / 3) E4(tau) and
    (8 pi^6 / 27) E6(tau), from one Eisenstein pass."""
    pi = pi_reference(ctx)
    _, e4, e6 = eisenstein_all(t, ctx)
    return 4 * pi**4 / 3 * e4, 8 * pi**6 / 27 * e6


def delta_tau(t: TauPoint, ctx: PrecisionCtx):
    """Discriminant Delta(tau) = (c tau0 + d)^12 (2 pi)^12 q0 P(q0)^24, with q0
    the nome of tau0; real where 2 Re(tau) is an integer.  P^24 is P^3
    squared three times, as mpmath forms a complex power past 10^4 exact
    bits from exp and log.  ValueError where 0 stands for x (_nome)."""
    if not t.x:
        raise ValueError(_long_power(*t.reduced[1:], 2))
    _, _, c, d = t.word.matrix()
    j6 = ((c * t.tau0 + d) ** 3) ** 2
    p24 = _euler(t.q, ctx)[0] ** 3
    for _ in range(3):
        p24 *= p24
    value = (2 * pi_reference(ctx)) ** 12 * t.q * p24
    return _rounded(value * j6 * j6, t, ctx)


def delta_tau_eisenstein(t: TauPoint, ctx: PrecisionCtx):
    """Cross-check route: Delta(tau) = g2(tau)^3 - 27 g3(tau)^2."""
    g2, g3 = weierstrass_g2_g3(t, ctx)
    return g2**3 - 27 * g3**2


# ---------------------------------------------------------------------------
# Modular lambda
# ---------------------------------------------------------------------------

def _lambda_from(x, p_x, p_q):
    """16 x (P(q)^3 / (P(x) P(-x)^2))^8 from (P(x), P(-x)) = p_x and P(q) = p_q:
    one 8th power, as mpmath forms a complex power past 10^4 exact bits from
    exp and log."""
    p, p_minus = p_x
    return 16 * x * (p_q ** 3 / (p * p_minus ** 2)) ** 8


def _lambda_series(t: TauPoint, ctx: PrecisionCtx):
    """lambda(tau0) = 16 x P(x)^8 P(x^4)^16 / P(q)^24 = 16 x P(q)^24 / (P(x)^8 P(-x)^16),
    by P(x) P(-x) = P(q)^3 / P(x^4): two pentagonal passes, at x and at q,
    at the nome of tau0."""
    return _lambda_from(t.x, _euler(t.x, ctx), _euler(t.q, ctx)[0])


def _eta_lambda_series(t: TauPoint, ctx: PrecisionCtx):
    """(eta(tau0), lambda(tau0)) from the two passes of lambda: eta's P(q)
    is lambda's.  The law checks sum both at each unreduced point."""
    p_q = _euler(t.q, ctx)[0]
    return _nome_root(t, ctx) * p_q, _lambda_from(t.x, _euler(t.x, ctx), p_q)


def lambda_tau(t: TauPoint, ctx: PrecisionCtx):
    """lambda at any tau: the product at tau0, mapped back by the laws
    lambda(tau + 1) = lambda/(lambda - 1), lambda(-1/tau) = 1 - lambda.
    Where 0 stands for x (_nome), lambda(tau) is 0 or infinity (odd a in the
    word's matrix) or 1 - O(x) (even a), which only prints, as 1, where
    Re(tau0) = 0 makes it real; elsewhere ValueError."""
    return _lambda_pair(t, ctx)[0]


def _lambda_pair(t: TauPoint, ctx: PrecisionCtx):
    """(lambda, 1 - lambda) at any tau, each to its own relative precision
    (TransformWord.apply_to_lambda), so 1 - lambda keeps its digits where
    lambda tends to 1; (1, 0) where lambda_tau prints 1."""
    if not t.x:
        if t.word.matrix()[0] % 2 or t.reduced[0]:
            raise ValueError(_long_power(*t.reduced[1:], 1))
        return ctx.mp.one, ctx.mp.zero
    return t.word.apply_to_lambda(_lambda_series(t, ctx))


def lambda_q_coeffs(n: int) -> list[int]:
    """First n integer coefficients of lambda in x = q^(1/2): 16, -128, 704, ...

    In the product form 16 x prod_m (1-x^m)^8 (1-x^(4m))^16 / (1-x^(2m))^24
    the factor (1 - x^k) has exponent 8 + 16 [4 | k] - 24 [2 | k].  Each
    power acts in place on one truncated integer list: multiplying is
    c[j] -= c[j-k] for descending j, dividing c[j] += c[j-k] for ascending j.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = [int(j == 0) for j in range(n)]
    for k in range(1, n):
        power = 8 + 16 * (k % 4 == 0) - 24 * (k % 2 == 0)
        for _ in range(power):
            for j in range(n - 1, k - 1, -1):
                c[j] -= c[j - k]
        for _ in range(-power):
            for j in range(k, n):
                c[j] += c[j - k]
    return [16 * v for v in c]


# ---------------------------------------------------------------------------
# s2
# ---------------------------------------------------------------------------

def s2_bracket(t: TauPoint, ctx: PrecisionCtx):
    """E2(tau) - 3/(pi Im tau), the non-holomorphic part of s2.  It has
    weight 2: (c tau0 + d)^2 (E2(tau0) - 3/(pi Im tau0)), from one pass at tau0."""
    _, _, c, d = t.word.matrix()
    e2 = _eisenstein_series(t.q, ctx)[0]
    return _rounded((c * t.tau0 + d) ** 2 * (e2 - 3 / (pi_reference(ctx) * t.tau0.imag)), t, ctx)


def s2(t: TauPoint, ctx: PrecisionCtx):
    """s2(tau) = (E4/E6)(E2 - 3/(pi Im tau)), of weight 0: summed at tau0 from
    one pass; indeterminate where E6(tau0), and so E6(tau), is 0.  Near the
    orbit of i, where E6(tau0) and the bracket both vanish, the pass is made
    again with the digits E6(tau0) lacks added (_widened_series)."""
    e2, e4, e6 = _eisenstein_series(t.q, ctx)
    if abs(e6) <= ctx.zero_tol:
        raise IndeterminateFormError(
            "E6(tau) vanishes here (e.g. tau = i, 1+i); s2 is 0/0 — "
            "use the combined form cm.combined_s2_term"
        )
    lost, wide, tau0 = math.ceil(1 - ctx.mp.mag(e6) * math.log10(2)), ctx, t.tau0
    if lost > 1:
        wide, tau0, (e2, e4, e6) = _widened_series(t, ctx, lost)
    return _rounded(e4 / e6 * (e2 - 3 / (pi_reference(wide) * tau0.imag)), t, ctx)
