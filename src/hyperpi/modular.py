"""q-series engines: Dedekind eta, Eisenstein E2/E4/E6, the modular lambda
function, and upper-half-plane reduction.

eta, Delta and lambda all sum one pentagonal series P(y) = prod (1 - y^m);
lambda needs only x = q^(1/2) = e^(pi i tau) (Borwein & Borwein 1987, ch. 4):

    lambda = 16 x P(x)^8 P(x^4)^16 / P(x^2)^24 = 16 x - 128 x^2 + 704 x^3 - ...

Direct evaluation needs Im(tau) >= 1/4 for eta and E_k and Im(tau) >= 1/2
for lambda, so that |q|, resp. |x|, is at most e^(-pi/2); below that,
lambda_tau_reduced reaches the point through S and T moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .errors import IndeterminateFormError, ReductionError
from .numerics import PrecisionCtx, pi_reference

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


def eisenstein(k: int, t: TauPoint, ctx: PrecisionCtx):
    """E_k(tau) = 1 + c_k sum_n n^(k-1) q^n / (1 - q^n) for k in {2, 4, 6}."""
    if k not in _EISENSTEIN:
        raise ValueError("k must be one of 2, 4, 6")
    _require_im(t, MIN_IM_QSERIES, "eisenstein")
    mp = ctx.mp
    q = t.q
    aq = abs(q)
    tol = ctx.tail_tol * (1 - aq)
    total = mp.mpf(0)
    qn = q
    n = 1
    while True:
        total += n ** (k - 1) * qn / (1 - qn)
        if n ** (k - 1) * aq**n < tol:
            break
        n += 1
        qn = qn * q
    return 1 + _EISENSTEIN[k] * total


def g2_tau(t: TauPoint, ctx: PrecisionCtx):
    """g2 of the lattice Z + Z tau: (4 pi^4 / 3) E4(tau)."""
    pi = pi_reference(ctx)
    return 4 * pi**4 / 3 * eisenstein(4, t, ctx)


def g3_tau(t: TauPoint, ctx: PrecisionCtx):
    """g3 of the lattice Z + Z tau: (8 pi^6 / 27) E6(tau)."""
    pi = pi_reference(ctx)
    return 8 * pi**6 / 27 * eisenstein(6, t, ctx)


def delta_tau(t: TauPoint, ctx: PrecisionCtx):
    """Discriminant Delta(tau) = (2 pi)^12 q P(q)^24; real wherever q is."""
    _require_im(t, MIN_IM_QSERIES, "delta_tau")
    pi = pi_reference(ctx)
    return (2 * pi) ** 12 * t.q * _euler(t.q, ctx) ** 24


def delta_tau_eisenstein(t: TauPoint, ctx: PrecisionCtx):
    """Cross-check route: Delta(tau) = g2(tau)^3 - 27 g3(tau)^2."""
    return g2_tau(t, ctx) ** 3 - 27 * g3_tau(t, ctx) ** 2


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
    pi = pi_reference(ctx)
    return eisenstein(2, t, ctx) - 3 / (pi * t.im)


def s2(t: TauPoint, ctx: PrecisionCtx):
    """s2(tau) = (E4/E6)(E2 - 3/(pi Im tau)); indeterminate where E6 = 0."""
    e6 = eisenstein(6, t, ctx)
    if abs(e6) <= ctx.zero_tol:
        raise IndeterminateFormError(
            "E6(tau) vanishes here (e.g. tau = i, 1+i); s2 is 0/0 — "
            "use the combined form cm.combined_s2_term"
        )
    return eisenstein(4, t, ctx) / e6 * s2_bracket(t, ctx)
