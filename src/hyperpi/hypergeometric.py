"""Gauss 2F1 evaluation in the regions the period formulas need.

Two evaluation routes cover every point this package uses:

* direct power series for |z| <= 15/16 (the classical radius the Legendre
  relation needs runs up to lambda = 0.9);
* the Pfaff transformation (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) for
  Re(z) < 0 with |z/(z-1)| <= 1/2, which reaches z = -1.

Anything else raises RegionError; no silent analytic continuation.
Derivatives come from the contiguous relation
d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), which is exact.
"""

from __future__ import annotations

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


def _series(p: HypParams, z, ctx: PrecisionCtx):
    """Truncated 2F1 power series; returns (value, terms_used).

    Stops once the term is below the tail tolerance and the running term
    ratio sits under rho = (1+|z|)/2 < 1, so the geometric tail bound
    |term| * rho/(1-rho) is rigorous (the parameter factor in the term
    ratio is decreasing for the parameter sets used here).
    """
    mp = ctx.mp
    a = ctx.real(p.a)
    b = ctx.real(p.b)
    c = ctx.real(p.c)
    az = abs(z)
    if az >= 1:
        raise RegionError(f"series needs |z| < 1, got |z| = {az}")
    one = mp.mpf(1)
    rho = (1 + az) / 2
    tail_factor = rho / (1 - rho)
    tol = ctx.tail_tol
    term = one
    total = one
    n = 0
    max_terms = int(80 * (ctx.working_digits + 10)) + 200
    while n < max_terms:
        ratio = ((a + n) * (b + n)) / ((c + n) * (n + 1)) * z
        term = term * ratio
        total += term
        n += 1
        if n >= 3 and abs(ratio) <= rho and abs(term) * tail_factor <= tol:
            return total, n
    raise ArithmeticError(f"2F1 series did not meet tolerance in {max_terms} terms")


def hyp2f1(p: HypParams, z, ctx: PrecisionCtx):
    """2F1(a, b; c; z) by direct series or Pfaff transformation.

    Raises RegionError outside the two regions; the caller must transform.
    """
    mp = ctx.mp
    z = _as_scalar(z, ctx)
    az = abs(z)
    # slack so boundary points computed with working-precision noise
    # (e.g. lambda(i) = 1/2 + O(eps)) still land in their region
    slack = mp.mpf(10) ** (-(ctx.working_digits // 2))
    half = ctx.real(PFAFF_RADIUS) * (1 + slack)
    if az <= half:
        return _series(p, z, ctx)[0]
    if z.real < 0:
        w = z / (z - 1)
        if abs(w) <= half:
            value, _ = _series(HypParams(p.a, p.c - p.b, p.c), w, ctx)
            return (1 - z) ** ctx.real(-p.a) * value
    if az <= ctx.real(DIRECT_RADIUS):
        return _series(p, z, ctx)[0]
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


def legendre_dF2(lam, ctx: PrecisionCtx):
    """d(F^2)/dlambda = (1/2) F(lambda) F2(lambda)."""
    return legendre_F(lam, ctx) * legendre_F2(lam, ctx) / 2


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
