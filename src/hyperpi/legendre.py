"""Weierstrass data of the Legendre family, its periods and quasi-periods,
and numerical checks of the eta-quotient period identities.

The curve y^2 = x(x-1)(x-lambda) in Weierstrass form y^2 = 4x^3 - g2 x - g3
has

    g2 = (4/3)(lambda^2 - lambda + 1),
    g3 = (4/27)(lambda + 1)(2 lambda - 1)(lambda - 2),
    disc = g2^3 - 27 g3^2 = 16 lambda^2 (1 - lambda)^2,
    J = g2^3 / disc = (4/27) (lambda^2 - lambda + 1)^3 / (lambda^2 (1 - lambda)^2),

with first period Omega1 = pi F(lambda) (F = 2F1(1/2,1/2;1;.)) and first
quasi-period H1 fixed by Bruns' differential relation

    H1 = -2 lambda (lambda - 1) dOmega1/dlambda - ((2 lambda - 1)/3) Omega1.

The check_* operations compare the eta/discriminant route for the period
against the hypergeometric route, with every root taken from eta products,
so no branch is chosen; certified quantities elsewhere never depend on them
(they are verifications, not inputs).
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import BranchWarning
from .numerics import PrecisionCtx, agm_converged, format_value, pi_reference

if TYPE_CHECKING:
    from .modular import TauPoint
    from .reports import FormulaReport

# The period and check functions import hypergeometric, modular and reports
# when called, so J(lambda), which is rational in lambda, loads none of them.


class LegendreCurve(NamedTuple):
    lam: object
    g2: object
    g3: object
    disc: object
    e0: object
    e1: object
    e_lam: object
    degenerate: bool

    @property
    def j(self):
        """Normalized j-invariant J = g2^3 / disc; undefined on a degenerate curve."""
        if self.degenerate:
            raise ValueError("J is undefined at lambda in {0, 1}")
        return self.g2**3 / self.disc


def weierstrass_from_lambda(lam) -> LegendreCurve:
    """Weierstrass invariants and 2-torsion roots; exact for rational input.

    Degenerate lambda in {0, 1} is allowed and flagged (disc = 0).
    """
    if isinstance(lam, int):
        lam = Fraction(lam)
    disc = 16 * lam * lam * (1 - lam) ** 2
    return LegendreCurve(
        lam=lam,
        g2=4 * (lam * lam - lam + 1) / 3,
        g3=4 * (lam + 1) * (2 * lam - 1) * (lam - 2) / 27,
        disc=disc,
        e0=-(1 + lam) / 3,
        e1=(2 - lam) / 3,
        e_lam=(2 * lam - 1) / 3,
        degenerate=bool(disc == 0),
    )


def normalized_j(lam):
    """J(lambda) of the Legendre curve; exact for int/Fraction input."""
    return weierstrass_from_lambda(lam).j


class PeriodPair(NamedTuple):
    """First period Omega1 and first quasi-period H1 of the Weierstrass model,
    with the values F(lambda) and F2(lambda) they were built from."""

    omega1: object
    h1: object
    F: object
    F2: object

    def curve_periods(self, lam):
        """(P1, Q1) of y^2 = x(x-1)(x-lambda): P1 = 2 Omega1,
        Q1 = 2 H1 - ((1+lambda)/3) P1."""
        p1 = 2 * self.omega1
        return p1, 2 * self.h1 - (1 + lam) * p1 / 3


def period_classical(lam, ctx: PrecisionCtx):
    """Omega1 = pi * 2F1(1/2, 1/2; 1; lambda)."""
    from .hypergeometric import legendre_F

    return pi_reference(ctx) * legendre_F(lam, ctx)


def quasiperiod_bruns(lam, ctx: PrecisionCtx) -> PeriodPair:
    """(Omega1, H1) with H1 from Bruns' first differential relation;
    dOmega1/dlambda = (pi/4) F2(lambda), with F and F2 from one series."""
    from .hypergeometric import legendre_F_F2

    pi = pi_reference(ctx)
    F, F2 = legendre_F_F2(lam, ctx)
    omega1 = pi * F
    d_omega1 = pi / 4 * F2
    h1 = -2 * lam * (lam - 1) * d_omega1 - (2 * lam - 1) / 3 * omega1
    return PeriodPair(omega1=omega1, h1=h1, F=F, F2=F2)


def _d_omega1_agm(lam, ctx: PrecisionCtx):
    """dOmega1/dlambda = 2 dK/dm = (E - (1-m) K) / (m (1-m)) at m = lambda from
    the AGM of 1 and sqrt(1-m) alone: Omega1 = 2K = pi / a_N and, by
    Legendre, E = K (1 - m/2 + t_N) with t = 0 in agm_sums."""
    a, _, t = agm_converged(ctx.mp.mpf(1), ctx.mp.sqrt(1 - lam), 0, ctx.mp)
    return pi_reference(ctx) / (2 * a) * (lam / 2 + t) / (lam * (1 - lam))


def bruns_residuals(lam, ctx: PrecisionCtx):
    """Residuals of both Bruns differential relations at real lambda in (0, 1/2].

    Omega1 and H1 come from one 2F1 series.  res1 takes dOmega1/dlambda from
    the AGM, so an error in F2, which built H1, shows in it.  res2 takes
    dH1/dlambda by central differences with step h = 10^(-working/4), which
    limits the attainable residual of the second relation to roughly h^2.
    """
    mp = ctx.mp
    lam = ctx.real(lam)
    if not (0 < lam <= 0.5):
        raise ValueError("residuals need lambda in (0, 1/2]; endpoints are singular")
    pair = quasiperiod_bruns(lam, ctx)
    omega1, h1 = pair.omega1, pair.h1
    denom = lam * (lam - 1)
    res1 = abs(_d_omega1_agm(lam, ctx) + h1 / (2 * denom) + (2 * lam - 1) / (6 * denom) * omega1)

    h = mp.mpf(10) ** (-(ctx.working_digits // 4))
    h1_plus = quasiperiod_bruns(lam + h, ctx).h1
    h1_minus = quasiperiod_bruns(lam - h, ctx).h1
    d_h1 = (h1_plus - h1_minus) / (2 * h)
    res2 = abs(d_h1 - (lam * lam - lam + 1) / (18 * denom) * omega1 - (2 * lam - 1) / (6 * denom) * h1)
    return res1, res2


# ---------------------------------------------------------------------------
# Homothety factor between the lattice of E_lambda and Z + Z tau
# ---------------------------------------------------------------------------

def _near_negative_cut(z, ctx: PrecisionCtx) -> bool:
    zc = ctx.complex(z)
    if zc.real >= 0:
        return False
    return abs(zc.imag) <= abs(zc.real) * ctx.zero_tol


def homothety_mu(t: TauPoint, ctx: PrecisionCtx):
    """The three printed expressions for the homothety factor mu(tau).

    Returns (mu_sqrt, mu_j, mu_closed):

    * mu_sqrt   = sqrt(9(l^2-l+1)/((l+1)(2l-1)(l-2)) * g3(tau)/g2(tau))
    * mu_j      = Delta(tau)^(1/12)/J^(1/6) * (J-1)^(1/4)/27^(1/4) * same sqrt
    * mu_closed = (2^(1/3)/27) * Delta(tau)^(1/12) / (lambda(1-lambda))^(1/6)

    All fractional powers are principal.  The three values are returned
    unreconciled so their mutual ratios (and the ratio to pi F(lambda)) can
    be measured; homothety_ratios does exactly that.
    """
    from .modular import lambda_tau

    return _homothety_mu(t, lambda_tau(t, ctx), ctx)


def _homothety_mu(t: TauPoint, lam, ctx: PrecisionCtx):
    from .modular import delta_tau, weierstrass_g2_g3

    mp = ctx.mp
    prod = lam * (1 - lam)
    if _near_negative_cut(prod, ctx):
        warnings.warn(
            "lambda(1-lambda) is on the negative real axis; sixth-root branch is ambiguous",
            BranchWarning,
            stacklevel=3,  # the caller of homothety_mu or homothety_ratios
        )
    curve = weierstrass_from_lambda(lam)
    ratio = curve.g2 / curve.g3  # = 9(l^2-l+1)/((l+1)(2l-1)(l-2))
    g2, g3 = weierstrass_g2_g3(t, ctx)
    mu_sqrt = mp.sqrt(ratio * g3 / g2)

    delta = delta_tau(t, ctx)
    delta_12 = delta ** (mp.mpf(1) / 12)
    j = curve.j
    mu_j = (
        delta_12 / j ** (mp.mpf(1) / 6)
        * (j - 1) ** (mp.mpf(1) / 4) / mp.mpf(27) ** (mp.mpf(1) / 4)
        * mp.sqrt(ratio)
    )
    mu_closed = mp.mpf(2) ** (mp.mpf(1) / 3) / 27 * delta_12 / prod ** (mp.mpf(1) / 6)
    return mu_sqrt, mu_j, mu_closed


def homothety_ratios(t: TauPoint, ctx: PrecisionCtx):
    """Each mu expression divided by pi F(lambda(tau)).

    The measured constants adjudicate the closed form: expressions that
    agree with the period normalization give ratio 1.
    """
    from .modular import lambda_tau

    lam = lambda_tau(t, ctx)
    omega1 = period_classical(lam, ctx)
    return tuple(mu / omega1 for mu in _homothety_mu(t, lam, ctx))


# ---------------------------------------------------------------------------
# Period-identity checks (eta route vs hypergeometric route)
# ---------------------------------------------------------------------------

def _eta_roots(t: TauPoint, ctx: PrecisionCtx):
    """(disc^(1/12), (l(1-l))^(1/6), sqrt(1-l), eta(tau)) at l = lambda(tau):
    the roots as eta products with no branch to choose (Borwein & Borwein
    1987, ch. 3-4), l(1-l) = 16 eta(tau/2)^24 eta(2 tau)^24 / eta(tau)^48 and
    1-l = eta(tau/2)^16 eta(2 tau)^8 / eta(tau)^24.  With
    R = eta(tau/2)^4 eta(2 tau)^4 / eta(tau)^8 they are 2 R, 2^(2/3) R and
    eta(tau/2)^8 eta(2 tau)^4 / eta(tau)^12; eta(tau) comes along for the
    eta route of _period_report."""
    from .modular import eta, tau_point

    half, double = (eta(tau_point(z, ctx), ctx) for z in (t.tau / 2, 2 * t.tau))
    one = eta(t, ctx)
    r = (half * double / (one * one)) ** 4
    return 2 * r, ctx.mp.cbrt(4) * r, half ** 8 * double ** 4 / one ** 12, one


def _period_report(name: str, t: TauPoint, form, ctx: PrecisionCtx) -> FormulaReport:
    """Report of omega1 = 2^(1/3) pi [i/scale] (l(1-l))^(1/6) disc^(-1/12) F(F_arg)
    at l = lambda(tau), with (scale, F_arg) = form(l, sqrt(1-l)) (scale None
    for no factor) and every root from _eta_roots.

    lhs is the eta route Delta(tau)^(1/12) / disc^(1/12), with
    Delta(tau)^(1/12) written as 2 pi eta(tau)^2 (no 12th root of Delta is
    ever taken); rhs is the hypergeometric route.
    """
    from .hypergeometric import legendre_F
    from .modular import lambda_tau
    from .reports import make_report

    mp = ctx.mp
    pi = pi_reference(ctx)
    disc_12, prod_6, sqrt_1ml, eta_tau = _eta_roots(t, ctx)
    scale, F_arg = form(lambda_tau(t, ctx), sqrt_1ml)
    prefactor = mp.cbrt(2) * pi
    if scale is not None:
        prefactor = prefactor * mp.mpc(0, 1) / scale
    rhs = prefactor * prod_6 / disc_12 * legendre_F(F_arg, ctx)
    lhs = 2 * pi * eta_tau ** 2 / disc_12
    return make_report(f"{name} tau={format_value(t.tau, ctx, 6)}", lhs, rhs, ctx)


def check_theorem_period(t: TauPoint, ctx: PrecisionCtx) -> FormulaReport:
    """Around infinity: omega1 = 2^(1/3) pi (l(1-l))^(1/6) disc^(-1/12) F(l).

    lhs comes from the eta/discriminant route, rhs from the hypergeometric
    route, with the roots taken from eta products (_eta_roots).
    """
    return _period_report("period-identity", t, lambda lam, _: (None, lam), ctx)


def check_theorem_transform(t: TauPoint, ctx: PrecisionCtx) -> FormulaReport:
    """Around 0: omega1 = 2^(1/3) (pi i / tau) (l(1-l))^(1/6) disc^(-1/12) F(1-l),
    the roots taken from eta products."""
    return _period_report("transform-identity", t, lambda lam, _: (t.tau, 1 - lam), ctx)


def check_theorem_around1(t: TauPoint, ctx: PrecisionCtx) -> FormulaReport:
    """Around 1: omega1 = 2^(1/3) pi i / ((tau-1) sqrt(1-l)) (l(1-l))^(1/6)
    disc^(-1/12) F(1/(1-l)), sqrt(1-l) and the other roots taken from eta
    products.  The factor is (tau-1): with (tau+1), as printed, lhs/rhs
    is (tau+1)/(tau-1), 1-4i at tau = 1 + i/2."""
    return _period_report("around-one-identity", t,
                          lambda lam, root: ((t.tau - 1) * root, 1 / (1 - lam)), ctx)
