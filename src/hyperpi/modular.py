"""q-series engines: Dedekind eta, Eisenstein E2/E4/E6, the modular lambda
function, and upper-half-plane reduction.

Direct q-series evaluation is restricted to Im(tau) >= 1/4 (eta, E_k) and
Im(tau) >= 1/2 (lambda, whose eta quotient involves eta(tau/2)); below the
threshold, lambda_tau_reduced reaches the point through S and T moves.

lambda(tau) is computed as the eta quotient

    lambda = 16 eta(tau/2)^8 eta(2 tau)^16 / eta(tau)^24,

whose expansion in x = q^(1/2) has integer coefficients 16, -128, 704, ...
(lambda_q_coeffs produces them exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

def eta(t: TauPoint, ctx: PrecisionCtx):
    """eta(tau) = q^(1/24) * sum_{n in Z} (-1)^n q^(n(3n-1)/2).

    The prefactor is e^(2 pi i tau / 24) evaluated directly, so there is no
    24th-root branch choice.
    """
    _require_im(t, MIN_IM_QSERIES, "eta")
    mp = ctx.mp
    q = t.q
    aq = abs(q)
    tol = ctx.tail_tol
    total = mp.mpf(1)
    n = 1
    while True:
        e_pos = n * (3 * n - 1) // 2
        e_neg = n * (3 * n + 1) // 2
        term = q**e_pos + q**e_neg
        total = total - term if n % 2 else total + term
        if aq**e_pos < tol:
            break
        n += 1
    pi = pi_reference(ctx)
    re = t.tau.real
    if re == 0:
        prefactor = mp.exp(-pi * t.im / 12)
    else:
        prefactor = mp.exp(mp.mpc(0, 1) * pi * t.tau / 12)
    return prefactor * total


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
    qn = mp.mpf(1) if hasattr(q, "_mpf_") else mp.mpc(1)
    n = 1
    while True:
        qn = qn * q
        total += n ** (k - 1) * qn / (1 - qn)
        if n ** (k - 1) * aq**n < tol:
            break
        n += 1
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
    """Discriminant Delta(tau) = (2 pi)^12 eta(tau)^24."""
    pi = pi_reference(ctx)
    return (2 * pi) ** 12 * eta(t, ctx) ** 24


def delta_tau_eisenstein(t: TauPoint, ctx: PrecisionCtx):
    """Cross-check route: Delta(tau) = g2(tau)^3 - 27 g3(tau)^2."""
    return g2_tau(t, ctx) ** 3 - 27 * g3_tau(t, ctx) ** 2


# ---------------------------------------------------------------------------
# Modular lambda
# ---------------------------------------------------------------------------

def lambda_tau(t: TauPoint, ctx: PrecisionCtx):
    """lambda(tau) by the eta quotient; needs Im(tau) >= 1/2."""
    if t.im < MIN_IM_LAMBDA:
        raise ValueError(
            f"lambda_tau needs Im(tau) >= {MIN_IM_LAMBDA} (eta(tau/2) term); "
            "use lambda_tau_reduced"
        )
    half = tau_point(t.tau / 2, ctx)
    double = tau_point(2 * t.tau, ctx)
    return 16 * eta(half, ctx) ** 8 * eta(double, ctx) ** 16 / eta(t, ctx) ** 24


def _poly_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j >= n:
                    break
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_pow(a, k, n):
    out = [0] * n
    out[0] = 1
    base = list(a)
    while k:
        if k & 1:
            out = _poly_mul(out, base, n)
        base = _poly_mul(base, base, n)
        k >>= 1
    return out


def _poly_inv(a, n):
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1))
    return out


def _pentagonal(scale, n):
    """Coefficients of prod_m (1 - y^(scale*m)) up to degree n-1."""
    coeffs = [0] * n
    coeffs[0] = 1
    k = 1
    while True:
        e1 = scale * k * (3 * k - 1) // 2
        e2 = scale * k * (3 * k + 1) // 2
        if e1 >= n and e2 >= n:
            return coeffs
        sign = 1 if k % 2 == 0 else -1
        if e1 < n:
            coeffs[e1] += sign
        if e2 < n:
            coeffs[e2] += sign
        k += 1


def _lambda_x_series(n: int) -> list[int]:
    """Coefficients of lambda in x = q^(1/2) for x^0 .. x^(n-1), exact.

    The eta quotient collapses to 16 x * P(x)^8 P(x^4)^16 / P(x^2)^24 with
    P(y) = prod (1 - y^m); the x^0 coefficient is 0.
    """
    if n <= 0:
        return []
    quotient = _poly_mul(
        _poly_mul(_poly_pow(_pentagonal(1, n), 8, n), _poly_pow(_pentagonal(4, n), 16, n), n),
        _poly_inv(_poly_pow(_pentagonal(2, n), 24, n), n),
        n,
    )
    return [0] + [16 * c for c in quotient[: n - 1]]


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
# s2 and the normalized j-invariant
# ---------------------------------------------------------------------------

def s2_bracket(t: TauPoint, ctx: PrecisionCtx):
    """E2(tau) - 3/(pi Im(tau)), the non-holomorphic part of s2."""
    pi = pi_reference(ctx)
    return eisenstein(2, t, ctx) - 3 / (pi * t.im)


def s2(t: TauPoint, ctx: PrecisionCtx):
    """s2(tau) = (E4/E6)(E2 - 3/(pi Im tau)); indeterminate where E6 = 0."""
    e6 = eisenstein(6, t, ctx)
    if abs(e6) <= ctx.mp.mpf(10) ** (-(ctx.working_digits // 2)):
        raise IndeterminateFormError(
            "E6(tau) vanishes here (e.g. tau = i, 1+i); s2 is 0/0 — "
            "use the combined form cm.combined_s2_term"
        )
    return eisenstein(4, t, ctx) / e6 * s2_bracket(t, ctx)


def normalized_j(lam):
    """J(lambda) = (4/27) (lambda^2 - lambda + 1)^3 / (lambda^2 (1-lambda)^2).

    Exact Fraction arithmetic for int/Fraction input, big-float otherwise.
    """
    if isinstance(lam, int):
        lam = Fraction(lam)
    if lam == 0 or lam == 1:
        raise ValueError("J is undefined at lambda in {0, 1}")
    return 4 * (lam * lam - lam + 1) ** 3 / (27 * lam * lam * (1 - lam) ** 2)
