"""Independent reference values and oracle helpers.

Frozen literals were computed with stdlib-only scratch scripts before the
library existed: fixed-point integer Machin arctangents for pi, the AGM
recurrence in the decimal module, the eta product over e^(-2 pi), the
averaged alternating 2F1 series at z = -1, and exact integer power-series
arithmetic for the lambda expansion.  Nothing here calls back into the
evaluation paths under test.
"""

from fractions import Fraction

import mpmath

PI_50 = "3.1415926535897932384626433832795028841971693993751"
AGM_1_HALF = "0.72839551552345343459321619163254098748693197161065"
F_HALF = "1.1803405990160962260453379405584885872337166348814"
F_MINUS1 = "0.83462684167407318628142973279904680899399301349034"
ETA_I = "0.76822542232605665900259417957618064451786691446480"
LAM_2I = "0.029437251522859414379735309483623057163937495476623"

# coefficients of lambda in x = q^(1/2), exponents 1..12
LAMBDA_X_COEFFS = [16, -128, 704, -3072, 11488, -38400,
                   117632, -335872, 904784, -2320128, 5702208, -13504512]


def machin_pi(ctx):
    """pi via Machin's arctangent formula in fixed-point integers.

    Entirely independent of the Gauss-Legendre AGM route used by
    pi_reference; accurate to about working_digits + 3.
    """
    digits = ctx.working_digits + 5
    scale = 10 ** digits

    def atan_inv(n):
        total = 0
        term = scale // n
        k = 0
        n2 = n * n
        while term:
            total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
            term //= n2
            k += 1
        return total

    return ctx.mp.mpf(4 * (4 * atan_inv(5) - atan_inv(239))) / scale


def alternating_2f1_minus1(ctx, terms=400, rows=80):
    """sum_n [(1/2)_n / n!]^2 (-1)^n by averaging partial sums.

    The raw series at z = -1 converges like 1/n; repeated averaging of the
    last `rows` partial sums accelerates it far past the 10^-20 the tests
    need.  Independent of the Pfaff transformation route.
    """
    mp = ctx.mp
    term = mp.mpf(1)
    partial = mp.mpf(0)
    sums = []
    for n in range(terms):
        partial = partial + term if n % 2 == 0 else partial - term
        sums.append(partial)
        r = Fraction(2 * n + 1, 2 * (n + 1)) ** 2
        term = term * r.numerator / r.denominator
    window = sums[-rows:]
    while len(window) > 1:
        window = [(window[i] + window[i + 1]) / 2 for i in range(len(window) - 1)]
    return window[0]


def eta_product(t, ctx):
    """eta via q^(1/24) prod (1 - q^n): the product route, used to check the
    pentagonal-series route."""
    mp = ctx.mp
    q = t.q
    aq = abs(q)
    prod = mp.mpf(1)
    n = 1
    while True:
        qn = q**n
        prod *= 1 - qn
        if aq**n < ctx.tail_tol:
            break
        n += 1
    from hyperpi.numerics import pi_reference

    pi = pi_reference(ctx)
    if t.tau.real == 0:
        prefactor = mp.exp(-pi * t.tau.imag / 12)
    else:
        prefactor = mp.exp(mp.mpc(0, 1) * pi * t.tau / 12)
    return prefactor * prod


def _settled(value_at, digits, floor, tau):
    """value_at(extra), a jtheta value at tau computed with `extra` digits
    beyond `digits`, with 40 and 80 extra digits, then doubling the extra
    digits until two successive values agree to 10^-(digits+10) times
    max(floor, |value|)."""
    extra = 40
    value = value_at(extra)
    for _ in range(6):
        extra *= 2
        better = value_at(extra)
        with mpmath.workdps(digits + extra):
            if abs(better - value) <= mpmath.mpf(10) ** -(digits + 10) * max(floor, abs(better)):
                return better
        value = better
    raise AssertionError(f"jtheta did not settle at tau = {tau} with {extra} extra digits")


def _theta_fourth_powers(tau):
    """(theta2^4, theta3^4, theta4^4) at the nome e^(i pi tau), from
    mpmath.jtheta at the current precision."""
    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    return tuple(mpmath.jtheta(k, 0, nome) ** 4 for k in (2, 3, 4))


def lambda_theta_quotient(tau, digits):
    """lambda(tau) = theta2^4 / theta3^4 from mpmath.jtheta, to 10^-(digits+10)
    relative.

    jtheta loses digits as |nome| -> 1, i.e. near the cusps, by an amount
    that a fixed precision cannot cover.  So the quotient is taken with 40
    and 80 extra digits, and the extra digits double until two successive
    values agree.  tau is anything mpmath.mpc accepts.
    """
    def quotient(extra):
        with mpmath.workdps(digits + extra):
            t2, t3, _ = _theta_fourth_powers(tau)
            return t2 / t3

    return _settled(quotient, digits, 0, tau)


def eisenstein_theta_forms(tau, digits):
    """(E4, E6) at tau from theta functions, to 10^-(digits+10) times
    max(1, |E_k|), with the precision doubling of lambda_theta_quotient:

        E4 = (theta2^8 + theta3^8 + theta4^8) / 2,
        E6 = (theta2^4 + theta3^4)(theta3^4 + theta4^4)(theta4^4 - theta2^4) / 2.
    """
    def e4(extra):
        with mpmath.workdps(digits + extra):
            t2, t3, t4 = _theta_fourth_powers(tau)
            return (t2 * t2 + t3 * t3 + t4 * t4) / 2

    def e6(extra):
        with mpmath.workdps(digits + extra):
            t2, t3, t4 = _theta_fourth_powers(tau)
            return (t2 + t3) * (t3 + t4) * (t4 - t2) / 2

    return _settled(e4, digits, 1, tau), _settled(e6, digits, 1, tau)


def e2_divisor_sum(tau, digits):
    """E2(tau) = 1 - 24 sum_n sigma_1(n) q^n, q = e^(2 pi i tau), at 20 digits
    beyond `digits`, for Im(tau) >= 0.01.

    The divisor sums come from a sieve, not from the Lambert form that
    hyperpi sums.  Stopping at n_max = (digits + 30) ln 10 / ln(1/|q|) + 100,
    |q|^n_max is below 10^-(digits+30) e^(-100 ln(1/|q|)), and with
    sigma_1(n) <= n^2 and |q| <= e^(-2 pi/100) the tail stays below
    n_max^2 |q|^n_max / (1 - |q|) < 10^-(digits+20).
    """
    with mpmath.workdps(digits + 20):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        n_max = int((digits + 30) * mpmath.log(10) / -mpmath.log(abs(q))) + 100
        sigma = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for m in range(d, n_max + 1, d):
                sigma[m] += d
        total, qn = mpmath.mpc(0), mpmath.mpc(1)
        for s in sigma[1:]:
            qn *= q
            total += s * qn
        return 1 - 24 * total


def central_difference(f, z, h):
    """(f(z+h) - f(z-h)) / (2h)."""
    return (f(z + h) - f(z - h)) / (2 * h)
