"""CM points, the quasi-period relation, the master CM formula, the two
1/pi identities, and the pi-digit engine.

A CM point is tau = (-b + sqrt(-d))/(2a) with a tau^2 + b tau + c = 0 for
coprime integers, d = 4ac - b^2 > 0.  At such points the quasi-period
relation

    Omega1 H1 Im(tau) - Omega1^2 [Im(tau) (3g3/2g2) s2(tau)] = pi

combines with Bruns' relation into the master formula

    -F^2 [(2l-1)/3 + (3g3/2g2) s2(tau)] + l(1-l) d(F^2)/dl = 2a/(pi sqrt(d)),

whose instances at tau = i (lambda = 1/2) and tau = 1+i (lambda = -1) are
the identities  8/pi = F(1/2) F2(1/2)  and  1/pi = F(-1)^2 - F(-1) F2(-1).
Both are written once, in _identity, in fixed-point integers from the
integer F and F' of hypergeometric.hyp2f1_fixed; identity_check(which, ctx)
rounds that integer once, and the pi engine pi_from_identity(which, digits)
divides by it and reads the digits of the integer quotient, so neither the
engine nor pi_reference_digits (the digits of numerics.pi_fixed) loads
mpmath.

The factor (3g3/2g2) s2(tau) is always evaluated here in the combined form

    (E2(tau) - 3/(pi Im tau)) / (3 F^2) = s2_bracket(tau) / (3 F^2),

which is finite even at the zeros of E6 (both identity points are 0/0 for
the raw E4/E6 form) and equals g2/g3 times s2 elsewhere, as the tests
cross-check at tau = 2i.

Reference pi in every report comes from pi_reference (and the reference
digits from the same integer), never from the identities under test.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .hypergeometric import F_PARAMS, _rounded, hyp2f1_fixed
from .numerics import PrecisionCtx, ctx_new, pi_fixed, pi_reference, truncated_digits
from .reports import FormulaReport, make_report

# The CM-point functions import modular and legendre when called, so the pi
# engine and the identity checks load neither.


class CMQuadratic(namedtuple("CMQuadratic", "a b c")):
    """Integer triple (a, b, c) of a tau quadratic a tau^2 + b tau + c = 0."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        self = super().__new__(cls, a, b, c)
        if math.gcd(math.gcd(a, b), c) != 1:
            raise ValueError("a, b, c must be mutually coprime")
        if a <= 0:
            raise ValueError("a must be positive")
        if self.d <= 0:
            raise ValueError("4ac - b^2 must be positive (upper-half-plane root)")
        return self

    @property
    def d(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    def label(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def cm_tau(q: CMQuadratic, ctx: PrecisionCtx) -> TauPoint:
    """tau = (-b + i sqrt(d)) / (2a)."""
    from .modular import tau_point

    mp = ctx.mp
    sqrt_d = mp.sqrt(mp.mpf(q.d))
    return tau_point(mp.mpc(mp.mpf(-q.b) / (2 * q.a), sqrt_d / (2 * q.a)), ctx)


def combined_s2_term(t: TauPoint, F, ctx: PrecisionCtx):
    """(3g3/2g2) s2(tau) in the combined form (E2 - 3/(pi Im tau)) / (3 F^2).

    F must be 2F1(1/2,1/2;1;lambda(tau)).  Finite at the zeros of E6 where
    the raw E4/E6 form of s2 is indeterminate.
    """
    from .modular import s2_bracket

    return s2_bracket(t, ctx) / (3 * F * F)


def _cm_point(q: CMQuadratic, ctx: PrecisionCtx):
    """(tau, lambda(tau), PeriodPair at lambda, combined s2 term) at the CM
    point of q; the pair carries F(lambda) and F2(lambda)."""
    from .legendre import quasiperiod_bruns
    from .modular import lambda_tau

    t = cm_tau(q, ctx)
    lam = lambda_tau(t, ctx)
    pair = quasiperiod_bruns(lam, ctx)
    return t, lam, pair, combined_s2_term(t, pair.F, ctx)


def quasiperiod_relation_check(q: CMQuadratic, ctx: PrecisionCtx) -> FormulaReport:
    """Omega1 H1 Im(tau) - Omega1^2 Im(tau) (3g3/2g2) s2(tau) = pi."""
    t, _, pair, term = _cm_point(q, ctx)
    lhs = pair.omega1 * pair.h1 * t.tau.imag - pair.omega1**2 * t.tau.imag * term
    rhs = pi_reference(ctx)
    return make_report(f"quasiperiod {q.label()}", lhs, rhs, ctx)


def theorem_general_check(q: CMQuadratic, ctx: PrecisionCtx) -> FormulaReport:
    """Master CM formula:
    -F^2 [(2l-1)/3 + (3g3/2g2) s2] + l(1-l) d(F^2)/dl = 2a/(pi sqrt(d))."""
    mp = ctx.mp
    t, lam, pair, term = _cm_point(q, ctx)
    F, F2 = pair.F, pair.F2
    lhs = -F * F * ((2 * lam - 1) / 3 + term) + lam * (1 - lam) * (F * F2 / 2)
    rhs = 2 * q.a / (pi_reference(ctx) * mp.sqrt(mp.mpf(q.d)))
    return make_report(f"theorem-general {q.label()}", lhs, rhs, ctx)


def _identity(which: int, ctx: PrecisionCtx):
    """(k, value, bits) with value / 2^bits = k/pi: identity 1 is
    8/pi = F(1/2) F2(1/2), identity 2 is 1/pi = F(-1)^2 - F(-1) F2(-1).

    The points are Fractions, so F and F' = F2/4 come as integers over 2^bits
    from one series at z = 1/2: directly, or at z = -1 through its Pfaff
    image 1/2 (hypergeometric.hyp2f1_fixed).  Each is within
    e = tail_tol / 2 + tail_tol / 1000 plus a few units of 2^-bits, which lie
    far below tail_tol (through Pfaff the prefactor 2^(-1/2) and its floors
    carry the series' errors times at most 0.71).  With |F| < 1.2 and |F2| < 2.2 at
    both points, F F2 is within (4|F| + |F2|) e and F (F - F2) within
    (5|F| + |F - F2|) e, so with the product's one floor value / 2^bits is
    within 4 tail_tol of k/pi."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    F, _, dF, _, bits = hyp2f1_fixed(F_PARAMS, Fraction(1, 2) if which == 1 else Fraction(-1), ctx)
    if which == 1:
        return 8, F * 4 * dF >> bits, bits
    return 1, F * (F - 4 * dF) >> bits, bits


def identity_check(which: int, ctx: PrecisionCtx) -> FormulaReport:
    """k/pi (reference pi) against the hypergeometric side of identity
    `which`, rounded once from its integer."""
    k, value, bits = _identity(which, ctx)
    return make_report(f"identity{which}", k / pi_reference(ctx), _rounded(value, bits, ctx), ctx)


def pi_from_identity(which: int, digits: int) -> str:
    """pi digits from identity 1 (8/(F F2) at 1/2) or 2 (1/(F^2 - F F2) at -1).

    Returns the first `digits` significant digits, truncated, e.g.
    pi_from_identity(1, 10) == "3.141592653": the integer
    floor(k 2^(2 bits) / value) = pi 2^bits, within about pi^2/k times the
    value's error (_identity), split into decimal digits by powers of ten
    (numerics.truncated_digits), all in integers.  The z = 1/2 series gains
    about 0.30 decimal digits per term, so it needs about 3.3 terms per
    digit, summed 64 at a time (hypergeometric._block): per block one
    division of a fixed-point term of at most 3.3 bits per digit by the
    product of the block's 64 small denominators, and three products by
    integers of that size, where a per-term loop makes 64 products and 64
    divisions at the full width.  The cost still grows about as digits^2.
    """
    k, value, bits = _identity(which, ctx_new(digits))
    return truncated_digits((k << 2 * bits) // value, bits, digits)


def pi_reference_digits(digits: int) -> str:
    """Truncated digit string of the reference pi (numerics.pi_fixed) at the
    working digits of ctx_new(digits), for digit-for-digit comparison."""
    return truncated_digits(*pi_fixed(ctx_new(digits).working_digits), digits)
