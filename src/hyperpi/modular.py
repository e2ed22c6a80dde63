"""q-series engines: Dedekind eta, Eisenstein E2/E4/E6, the modular lambda
function, and upper-half-plane reduction.

eta, Delta and lambda all sum one pentagonal series P(y) = prod (1 - y^m);
lambda needs only x = q^(1/2) = e^(pi i tau) (Borwein & Borwein 1987, ch. 4):

    lambda = 16 x P(x)^8 P(x^4)^16 / P(x^2)^24 = 16 x - 128 x^2 + 704 x^3 - ...

E2, E4 and E6 come together from one pass over the Lambert series
sum n^(k-1) q^n / (1 - q^n), summed in fixed-point integers with a stated
tail bound (eisenstein_all).

Direct evaluation needs Im(tau) >= 1/4 for eta and E_k and Im(tau) >= 1/2
for lambda, so that |q|, resp. |x|, is at most e^(-pi/2); below that,
lambda_tau_reduced reaches the point through S and T moves.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import groupby

from .errors import IndeterminateFormError, ReductionError
from .numerics import PrecisionCtx, fixed_point, pi_reference

MIN_IM_QSERIES = 0.25
MIN_IM_LAMBDA = 0.5


@dataclass(frozen=True)
class TauPoint:
    """A point in the upper half-plane with its nome q and x = q^(1/2).

    q and x are computed once at context precision; when Re(tau) is an exact
    integer both are real, which keeps every downstream q-series real on the
    imaginary axis.
    """

    tau: object
    q: object
    x: object
    im: object


def tau_point(tau, ctx: PrecisionCtx) -> TauPoint:
    mp = ctx.mp
    tau = ctx.complex(tau)
    im = tau.imag
    if im <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    re = tau.real
    pi = pi_reference(ctx)
    if re == int(re):
        x = mp.exp(-pi * im)
        if int(re) % 2:
            x = -x
    else:
        x = mp.exp(mp.mpc(0, 1) * pi * tau)
    return TauPoint(tau=tau, q=x * x, x=x, im=im)


def _require_im(t: TauPoint, minimum: float, what: str):
    if t.im < minimum:
        raise ValueError(f"{what} needs Im(tau) >= {minimum}, got {t.im}")


# ---------------------------------------------------------------------------
# Dedekind eta
# ---------------------------------------------------------------------------

def _euler(y, ctx: PrecisionCtx):
    """Euler's P(y) = prod (1 - y^m) = sum_{n in Z} (-1)^n y^(n(3n-1)/2) over
    |n| <= N, the first n with n(3n-1)/2 > log(tail_tol) / log|y|, so that
    |y|^(N(3N-1)/2) < tail_tol.  Later exponents start at (N+1)(3N+2)/2 and
    rise by at least 1, so the tail is at most 2 |y|^((N+1)(3N+2)/2) / (1 - |y|)."""
    mp = ctx.mp
    ratio = float(mp.log(ctx.tail_tol) / mp.log(abs(y)))
    total = mp.mpf(1)
    for n in range(1, math.floor((1 + math.sqrt(1 + 24 * ratio)) / 6) + 2):
        term = y ** (n * (3 * n - 1) // 2) + y ** (n * (3 * n + 1) // 2)
        total = total - term if n % 2 else total + term
    return total


def eta(t: TauPoint, ctx: PrecisionCtx):
    """eta(tau) = q^(1/24) P(q).

    The prefactor is e^(2 pi i tau / 24) evaluated directly, so there is no
    24th-root branch choice; at Re(tau) = 0 its imaginary part is exactly 0.
    """
    _require_im(t, MIN_IM_QSERIES, "eta")
    mp = ctx.mp
    prefactor = mp.exp(mp.mpc(0, 1) * pi_reference(ctx) * t.tau / 12)
    return prefactor * _euler(t.q, ctx)


# ---------------------------------------------------------------------------
# Eisenstein series (Lambert form)
# ---------------------------------------------------------------------------

_EISENSTEIN = {2: -24, 4: 240, 6: -504}


def _lambert_count(log_r: float, ctx: PrecisionCtx) -> int:
    """N, the last n the Lambert pass sums at |q| = r = e^(log_r).

    |q^n / (1 - q^n)| <= r^n / (1 - r), and the ratio ((n+1)/n)^(k-1) r of
    successive n^(k-1) r^n falls with n.  For N >= (k-1) / ln(1/r) the ratios
    past N are at most rho = ((N+2)/(N+1))^(k-1) r < 1, so

        sum_(n>N) n^(k-1) |q^n / (1 - q^n)| <= (N+1)^(k-1) r^(N+1) / ((1-r)(1-rho)).

    Each factor grows with k, and so does |c_k|, so k = 6 bounds all three
    weights: N is the first n >= max(1, 5 / ln(1/r)) at which 504 times the
    k = 6 bound is at most tail_tol / 2000, found by doubling and bisection
    (the bound falls with n there); 3 digits cover the float logarithms.
    """
    r = math.exp(log_r)
    log_limit = -(ctx.working_digits + 8) * math.log(10) - math.log(2 * 504)

    def below_limit(n):
        rho = ((n + 2) / (n + 1)) ** 5 * r
        return 5 * math.log(n + 1) + (n + 1) * log_r - math.log((1 - r) * (1 - rho)) <= log_limit

    low = high = max(1, math.ceil(5 / -log_r))
    while not below_limit(high):
        high *= 2
    return bisect.bisect_left(range(high + 1), True, low, key=below_limit)


def eisenstein_all(t: TauPoint, ctx: PrecisionCtx):
    """(E2, E4, E6) at tau from one pass over the Lambert series

        E_k = 1 + c_k S_k,  S_k = sum_(n=1..N) n^(k-1) q^n / (1 - q^n),  (c_2, c_4, c_6) = (-24, 240, -504),

    summed in fixed-point integers with `bits` fractional bits.  N is fixed
    before the loop (_lambert_count), so that the tail past N is within
    tail_tol / 2 for every k.  All three are mpfs when q is real (integer
    Re(tau)), whose pass skips the imaginary products, and mpcs otherwise.

    q is rounded once, to q~, and q~^n is carried by one integer product per
    term.  Each term q^n / (1 - q^n) = (q^n - |q^n|^2) / |1 - q^n|^2 takes
    one integer division per component, whose quotient shrinks with |q^n|.

    Guard bits.  With u = 2^-bits each floor moves a complex value by less
    than 2u; r below stands for max(|q|, |q~|), which the float |q| of the
    sizing misses by far less than its 2 slack bits cover.  The power q~^n
    misses q^n by e_n with e_(n+1) < r e_n + |q|^n 2u + 2u, so e_n < 4u / (1-r),
    and as |1 - q^n| >= 1 - r the exact quotient at q~^n misses by less than
    5u / (1-r)^3.  The denominator, floored to `bits` fractional bits, moves
    a quotient of at most r / (1-r) by a factor within u / (1-r)^2 of 1, and
    the quotient's own floor adds 2u: each term misses by under
    8u / (1-r)^3.  Weighted by n^(k-1) <= N^(k-1) and summed, and times
    |c_k| <= 504, E_k misses by under 2^12 N^6 u / (1-r)^3, which `bits`
    keeps below tail_tol / 2.  2^bits + c_k S_k is an exact integer, rounded
    once to working precision.
    """
    _require_im(t, MIN_IM_QSERIES, "eisenstein")
    qr, qi, s, _ = fixed_point(t.q)
    # s >= 2^1000 would overflow a float; such a q rounds to 0 or -u anyway,
    # and capping s only raises r, which keeps every bound an upper bound
    log_r = math.log(qr * qr + qi * qi) / 2 - min(s, 1 << 1000) * math.log(2)
    n_terms = _lambert_count(log_r, ctx)
    error_bits = 12 + 6 * math.log2(n_terms) - 3 * math.log2(1 - math.exp(log_r))
    # 2 more bits cover the float rounding of error_bits and r
    bits = math.ceil((ctx.working_digits + 5) * math.log2(10) + 1 + error_bits) + 2
    one = 1 << bits
    qr, qi = (qr << bits) >> s, (qi << bits) >> s
    q_sum, q_diff = qr + qi, qi - qr
    qnr, qni = one, 0  # q~^n
    sums = [0] * 6  # real and imaginary parts of S_2, S_4 and S_6
    for n in range(1, n_terms + 1):
        n3 = n * n * n
        n5 = n3 * n * n
        if qi:
            k1 = qr * (qnr + qni)  # (qnr + i qni)(qr + i qi) in three products
            qnr, qni = (k1 - qni * q_sum) >> bits, (k1 + qnr * q_diff) >> bits
            abs2 = qnr * qnr + qni * qni
            norm = one - 2 * qnr + (abs2 >> bits)
            lr, li = ((qnr << bits) - abs2) // norm, (qni << bits) // norm
            sums[1] += n * li
            sums[3] += n3 * li
            sums[5] += n5 * li
        else:
            qnr = (qnr * qr) >> bits
            lr = (qnr << bits) // (one - qnr)
        sums[0] += n * lr
        sums[2] += n3 * lr
        sums[4] += n5 * lr
    mp = ctx.mp

    def rounded(x):
        return mp.ldexp(mp.mpf(x), -bits)

    values = []
    for i, c in enumerate(_EISENSTEIN.values()):
        re, im = rounded(one + c * sums[2 * i]), rounded(c * sums[2 * i + 1])
        values.append(mp.mpc(re, im) if hasattr(t.q, "_mpc_") else re)
    return tuple(values)


def eisenstein(k: int, t: TauPoint, ctx: PrecisionCtx):
    """E_k(tau) = 1 + c_k sum_n n^(k-1) q^n / (1 - q^n) for k in {2, 4, 6},
    read from the one fixed-point pass of eisenstein_all.

    With r = |q|, the tail past N >= (k-1) / ln(1/r) is at most
    (N+1)^(k-1) r^(N+1) / ((1-r)(1-rho)), rho = ((N+2)/(N+1))^(k-1) r, and N
    keeps |c_k| times it below tail_tol / 2 (_lambert_count); guard bits
    sized from N^6, |c_6| = 504 and 1/(1-r)^3 keep the rounding below
    tail_tol / 2 (the argument is in eisenstein_all)."""
    if k not in _EISENSTEIN:
        raise ValueError("k must be one of 2, 4, 6")
    return eisenstein_all(t, ctx)[k // 2 - 1]


def weierstrass_g2_g3(t: TauPoint, ctx: PrecisionCtx):
    """(g2, g3) of the lattice Z + Z tau: (4 pi^4 / 3) E4(tau) and
    (8 pi^6 / 27) E6(tau), from one Lambert pass."""
    pi = pi_reference(ctx)
    _, e4, e6 = eisenstein_all(t, ctx)
    return 4 * pi**4 / 3 * e4, 8 * pi**6 / 27 * e6


def delta_tau(t: TauPoint, ctx: PrecisionCtx):
    """Discriminant Delta(tau) = (2 pi)^12 q P(q)^24; real wherever q is."""
    _require_im(t, MIN_IM_QSERIES, "delta_tau")
    pi = pi_reference(ctx)
    return (2 * pi) ** 12 * t.q * _euler(t.q, ctx) ** 24


def delta_tau_eisenstein(t: TauPoint, ctx: PrecisionCtx):
    """Cross-check route: Delta(tau) = g2(tau)^3 - 27 g3(tau)^2."""
    g2, g3 = weierstrass_g2_g3(t, ctx)
    return g2**3 - 27 * g3**2


# ---------------------------------------------------------------------------
# Modular lambda
# ---------------------------------------------------------------------------

def lambda_tau(t: TauPoint, ctx: PrecisionCtx):
    """lambda(tau) = 16 x P(x)^8 P(x^4)^16 / P(x^2)^24; needs Im(tau) >= 1/2."""
    if t.im < MIN_IM_LAMBDA:
        raise ValueError(
            f"lambda_tau needs Im(tau) >= {MIN_IM_LAMBDA} (|x| <= e^(-pi/2)); "
            "use lambda_tau_reduced"
        )
    x, q = t.x, t.q
    return 16 * x * _euler(x, ctx) ** 8 * _euler(q * q, ctx) ** 16 / _euler(q, ctx) ** 24


def _lambda_x_series(n: int) -> list[int]:
    """Coefficients of lambda in x = q^(1/2) for x^0 .. x^(n-1), exact.

    In the product form 16 x prod_m (1-x^m)^8 (1-x^(4m))^16 / (1-x^(2m))^24
    the factor (1 - x^k) has exponent 8 + 16 [4 | k] - 24 [2 | k].  Each
    power acts in place on one truncated integer list: multiplying is
    c[j] -= c[j-k] for descending j, dividing c[j] += c[j-k] for ascending j.
    """
    if n <= 1:
        return [0] * n
    c = [1] + [0] * (n - 2)
    for k in range(1, n - 1):
        power = 8 + 16 * (k % 4 == 0) - 24 * (k % 2 == 0)
        for _ in range(power):
            for j in range(n - 2, k - 1, -1):
                c[j] -= c[j - k]
        for _ in range(-power):
            for j in range(k, n - 1):
                c[j] += c[j - k]
    return [0] + [16 * v for v in c]


def lambda_q_coeffs(n: int) -> list[int]:
    """First n integer coefficients of lambda in x = q^(1/2): 16, -128, 704, ..."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _lambda_x_series(n + 1)[1:]


# ---------------------------------------------------------------------------
# Reduction to the q-series domain
# ---------------------------------------------------------------------------

LETTER_T = "T"
LETTER_T_INV = "T^-1"
LETTER_S = "S"


@dataclass(frozen=True)
class TransformWord:
    """Word over {T: tau+1, T^-1: tau-1, S: -1/tau} mapping the reduced
    point back to the original one."""

    letters: tuple[str, ...]

    def apply_to_tau(self, tau):
        for letter in self.letters:
            if letter == LETTER_T:
                tau = tau + 1
            elif letter == LETTER_T_INV:
                tau = tau - 1
            elif letter == LETTER_S:
                tau = -1 / tau
            else:
                raise ValueError(f"unknown letter {letter!r}")
        return tau

    def apply_to_lambda(self, lam):
        # Carry the pair (x, 1-x).  S swaps it; T and T^-1 both act as the
        # involution x -> x/(x-1), i.e. (x, y) -> (-x/y, 1/y) since x + y = 1.
        # Both square to the identity on lambda, so a run of like letters acts
        # once when its length is odd and not at all when it is even.  No
        # letter subtracts two nearly equal numbers, so lambda keeps its
        # relative precision near the cusps, where it is huge.
        unknown = set(self.letters) - {LETTER_T, LETTER_T_INV, LETTER_S}
        if unknown:
            raise ValueError(f"unknown letter {unknown.pop()!r}")
        x, y = lam, 1 - lam
        for is_swap, run in groupby(self.letters, key=lambda letter: letter == LETTER_S):
            if len(list(run)) % 2:
                x, y = (y, x) if is_swap else (-x / y, 1 / y)
        return x


def reduce_tau(t: TauPoint, ctx: PrecisionCtx, max_steps: int = 64):
    """Move tau into Im >= 1/2 via translations and inversions.

    Returns (reduced TauPoint, TransformWord); the word applied to the
    reduced tau reproduces the original point.
    """
    mp = ctx.mp
    tau = t.tau
    inverse_letters = []  # inverses of the applied moves, most recent first
    for _ in range(max_steps):
        shift = int(mp.nint(tau.real))
        if shift:
            tau = tau - shift
            letter = LETTER_T if shift > 0 else LETTER_T_INV
            inverse_letters[:0] = [letter] * abs(shift)
        if tau.imag >= MIN_IM_LAMBDA:
            return tau_point(tau, ctx), TransformWord(tuple(inverse_letters))
        tau = -1 / tau
        inverse_letters[:0] = [LETTER_S]
    raise ReductionError(f"reduction did not reach Im >= {MIN_IM_LAMBDA} in {max_steps} steps")


def lambda_tau_reduced(t: TauPoint, ctx: PrecisionCtx):
    """lambda(tau) for any Im(tau) > 0, via reduction and the transformation
    rules lambda(tau +- 1) = lambda/(lambda - 1), lambda(-1/tau) = 1 - lambda."""
    reduced, word = reduce_tau(t, ctx)
    return word.apply_to_lambda(lambda_tau(reduced, ctx))


# ---------------------------------------------------------------------------
# s2
# ---------------------------------------------------------------------------

def s2_bracket(t: TauPoint, ctx: PrecisionCtx):
    """E2(tau) - 3/(pi Im(tau)), the non-holomorphic part of s2."""
    return _s2_bracket(eisenstein(2, t, ctx), t, ctx)


def _s2_bracket(e2, t: TauPoint, ctx: PrecisionCtx):
    return e2 - 3 / (pi_reference(ctx) * t.im)


def s2(t: TauPoint, ctx: PrecisionCtx):
    """s2(tau) = (E4/E6)(E2 - 3/(pi Im tau)), all three E_k from one pass;
    indeterminate where E6 = 0."""
    e2, e4, e6 = eisenstein_all(t, ctx)
    if abs(e6) <= ctx.zero_tol:
        raise IndeterminateFormError(
            "E6(tau) vanishes here (e.g. tau = i, 1+i); s2 is 0/0 — "
            "use the combined form cm.combined_s2_term"
        )
    return e4 / e6 * _s2_bracket(e2, t, ctx)
