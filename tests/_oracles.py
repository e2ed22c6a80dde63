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
        prefactor = mp.exp(-pi * t.im / 12)
    else:
        prefactor = mp.exp(mp.mpc(0, 1) * pi * t.tau / 12)
    return prefactor * prod


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
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            return (mpmath.jtheta(2, 0, nome) / mpmath.jtheta(3, 0, nome)) ** 4

    extra = 40
    value = quotient(extra)
    for _ in range(6):
        extra *= 2
        better = quotient(extra)
        with mpmath.workdps(digits + extra):
            if abs(better - value) <= mpmath.mpf(10) ** -(digits + 10) * abs(better):
                return better
        value = better
    raise AssertionError(f"jtheta did not settle at tau = {tau} with {extra} extra digits")


def central_difference(f, z, h):
    """(f(z+h) - f(z-h)) / (2h)."""
    return (f(z + h) - f(z - h)) / (2 * h)
