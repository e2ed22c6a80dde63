"""Machine-readable verification records.

A FormulaReport captures one check: the two sides as decimal strings, the
absolute error, and a pass flag.  The pass rule is fixed:

    pass  <=>  abs_error < 10^(-digits_requested + 5)

the 5-digit slack absorbing final rounding and series tail bounds.  It is
the only rule: verify, cm-report and selftest exit 0 exactly when every
report they print passes.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .numerics import PrecisionCtx, format_real, format_value


class FormulaReport(namedtuple("FormulaReport", "label lhs rhs abs_error digits_requested passed branch_flags",
                               defaults=((),))):
    """One check; to_dict gives its 7-key JSON record.  No check sets
    branch_flags, a tuple of strings; the record keeps its key."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_error": self.abs_error,
            "digits_requested": self.digits_requested,
            "pass": self.passed,
            "branch_flags": list(self.branch_flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.label}  abs_error={self.abs_error}"


def make_report(label, lhs, rhs, ctx: PrecisionCtx, digits=None) -> FormulaReport:
    """Report comparing two computed values under ctx's pass rule."""
    if digits is None:
        digits = ctx.target_digits
    err = abs(ctx.complex(lhs) - ctx.complex(rhs))
    threshold = ctx.mp.mpf(10) ** (-(digits - 5))
    return FormulaReport(
        label=label,
        lhs=format_value(lhs, ctx, digits),
        rhs=format_value(rhs, ctx, digits),
        abs_error=format_real(err, ctx, 3),
        digits_requested=digits,
        passed=bool(err < threshold),
    )


def report_acceptable(report: FormulaReport) -> bool:
    """report.passed: every check is held to the one pass rule.  Kept because
    the benchmark harness imports it from hyperpi.suite."""
    return report.passed
