"""Arbitrary-precision periods of the Legendre curve family, modular
q-series, and hypergeometric 1/pi identities, with a pi-digit engine.

Typical use::

    from hyperpi import ctx_new, legendre_F, pi_from_identity

    ctx = ctx_new(50)
    F_half = legendre_F(0.5, ctx)
    print(pi_from_identity(1, 50))
"""

from .cm import (
    CMQuadratic,
    cm_tau,
    combined_s2_term,
    identity_check,
    pi_from_identity,
    pi_reference_digits,
    quasiperiod_relation_check,
    theorem_general_check,
)
from .errors import BranchWarning, IndeterminateFormError, ReductionError, RegionError
from .hypergeometric import (
    HypParams,
    hyp2f1,
    hyp_derivative,
    hyp_via_agm,
    legendre_F,
    legendre_F2,
    picard_fuchs_residual,
)
from .legendre import (
    LegendreCurve,
    PeriodPair,
    bruns_residuals,
    check_theorem_around1,
    check_theorem_period,
    check_theorem_transform,
    homothety_mu,
    homothety_ratios,
    normalized_j,
    period_classical,
    quasiperiod_bruns,
    weierstrass_from_lambda,
)
from .modular import (
    TauPoint,
    TransformWord,
    delta_tau,
    delta_tau_eisenstein,
    eisenstein,
    eisenstein_all,
    eta,
    lambda_q_coeffs,
    lambda_tau,
    reduce_tau,
    s2,
    s2_bracket,
    tau_point,
)
from .numerics import (
    PrecisionCtx,
    agm,
    ctx_new,
    format_complex,
    format_real,
    format_value,
    parse_complex,
    parse_real,
    pi_reference,
)
from .reports import FormulaReport, make_report

__version__ = "0.1.0"
