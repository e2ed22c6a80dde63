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

from collections import namedtuple
from fractions import Fraction

from .numerics import PrecisionCtx, _agm_fixed, format_value, isqrt, pi_reference

# The period and check functions import hypergeometric, modular and reports
# when called, so J(lambda), which is rational in lambda, loads none of them.


class LegendreCurve(namedtuple("LegendreCurve", "lam g2 g3 disc e0 e1 e_lam degenerate")):
    """Weierstrass invariants g2, g3, disc and 2-torsion roots e0, e1, e_lam
    of the curve at lam; degenerate where disc = 0."""

    __slots__ = ()

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


def normalized_j(lam, mu=None):
    """J(lambda) = (4/27)(1 - lambda mu)^3 / (lambda mu)^2 of the Legendre
    curve, with mu = 1 - lambda; exact for int/Fraction input.  A caller that
    holds mu to more relative precision than 1 - lambda keeps, as
    lambda(tau) near the cusp lambda = 1 (modular._lambda_pair), passes it."""
    if isinstance(lam, int):
        lam = Fraction(lam)
    product = lam * (1 - lam if mu is None else mu)
    if product == 0:
        raise ValueError("J is undefined at lambda in {0, 1}")
    # products, not ** 3: mpmath powers an mpc whose parts lie far apart
    # through its logarithm, at a precision as wide as the gap
    factor = 1 - product
    return 4 * factor * factor * factor / (27 * product * product)


class PeriodPair(namedtuple("PeriodPair", "omega1 h1 F F2")):
    """First period Omega1 and first quasi-period H1 of the Weierstrass model,
    with the values F(lambda) and F2(lambda) they were built from."""

    __slots__ = ()

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
    the AGM of 1 and sqrt(1-m) alone, on integers with 64 guard bits
    (numerics._agm_fixed): Omega1 = 2K = pi / M for the limit
    M = (a_N + b_N)/2 and, by Legendre, E = K (1 - m/2 - s) with
    s = sum_(k>=1) 2^(k-1) c_k^2, the kernel's sum."""
    mp = ctx.mp
    bits = mp.prec + 64
    one = 1 << bits
    a, b, s = _agm_fixed(one, isqrt((one - int(mp.ldexp(lam, bits))) << bits), bits)
    return pi_reference(ctx) * (lam / 2 - mp.ldexp(s, -bits)) / (mp.ldexp(a + b, -bits) * lam * (1 - lam))


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

def homothety_mu(t: TauPoint, ctx: PrecisionCtx):
    """The three printed expressions for the homothety factor mu(tau).

    Returns (mu_sqrt, mu_j, mu_closed):

    * mu_sqrt   = sqrt(9(l^2-l+1)/((l+1)(2l-1)(l-2)) * g3(tau)/g2(tau))
    * mu_j      = Delta(tau)^(1/12)/J^(1/6) * (J-1)^(1/4)/27^(1/4) * same sqrt
    * mu_closed = (2^(1/3)/27) * Delta(tau)^(1/12) / (lambda(1-lambda))^(1/6)

    Delta(tau)^(1/12) is 2 pi eta(tau)^2 and (l(1-l))^(1/6) the root from
    eta products (_eta_roots), so neither chooses a branch; the powers of J
    and the square roots are principal.  The three values are returned
    unreconciled so their mutual ratios (and the ratio to pi F(lambda)) can
    be measured; homothety_ratios does exactly that.
    """
    from .modular import lambda_tau

    return _homothety_mu(t, lambda_tau(t, ctx), ctx)


def _homothety_mu(t: TauPoint, lam, ctx: PrecisionCtx):
    from .modular import weierstrass_g2_g3

    mp = ctx.mp
    curve = weierstrass_from_lambda(lam)
    ratio = curve.g2 / curve.g3  # = 9(l^2-l+1)/((l+1)(2l-1)(l-2))
    g2, g3 = weierstrass_g2_g3(t, ctx)
    mu_sqrt = mp.sqrt(ratio * g3 / g2)

    _, prod_6, _, eta_tau = _eta_roots(t, ctx)
    delta_12 = 2 * pi_reference(ctx) * eta_tau ** 2
    j = curve.j
    mu_j = (
        delta_12 / j ** (mp.mpf(1) / 6)
        * (j - 1) ** (mp.mpf(1) / 4) / mp.mpf(27) ** (mp.mpf(1) / 4)
        * mp.sqrt(ratio)
    )
    mu_closed = mp.cbrt(2) / 27 * delta_12 / prod_6
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
