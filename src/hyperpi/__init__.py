"""Arbitrary-precision periods of the Legendre curve family, modular
q-series, and hypergeometric 1/pi identities, with a pi-digit engine.

Typical use::

    from hyperpi import ctx_new, legendre_F, pi_from_identity

    ctx = ctx_new(50)
    F_half = legendre_F(0.5, ctx)
    print(pi_from_identity(1, 50))

Importing the package loads none of its modules.  Each public name below is
resolved on first use from the module that defines it (PEP 562), so a
program that needs only the pi engine never loads the q-series or the
Legendre checks.  `from hyperpi import *` imports every name in __all__.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "cm": ("CMQuadratic", "cm_tau", "combined_s2_term", "identity_check", "pi_from_identity",
           "pi_reference_digits", "quasiperiod_relation_check", "theorem_general_check"),
    "errors": ("IndeterminateFormError", "ReductionError", "RegionError"),
    "hypergeometric": ("HypParams", "hyp2f1", "hyp_derivative", "hyp_via_agm", "legendre_F", "legendre_F2",
                       "picard_fuchs_residual"),
    "legendre": ("LegendreCurve", "PeriodPair", "bruns_residuals", "check_theorem_around1", "check_theorem_period",
                 "check_theorem_transform", "homothety_mu", "homothety_ratios", "normalized_j",
                 "period_classical", "quasiperiod_bruns", "weierstrass_from_lambda"),
    "modular": ("TauPoint", "TransformWord", "delta_tau", "delta_tau_eisenstein", "eisenstein", "eisenstein_all",
                "eta", "lambda_q_coeffs", "lambda_tau", "reduce_tau", "s2", "s2_bracket", "tau_point"),
    "numerics": ("PrecisionCtx", "agm", "ctx_new", "format_complex", "format_real", "format_value",
                 "parse_complex", "parse_real", "pi_reference"),
    "reports": ("FormulaReport", "make_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
