"""Machine-readable verification records.

A FormulaReport captures one check: the two sides as decimal strings, the
absolute error, and a pass flag.  The pass rule is fixed:

    pass  <=>  abs_error < 10^(-digits_requested + 5)

the 5-digit slack absorbing final rounding and series tail bounds.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .numerics import PrecisionCtx, format_real, format_value


class FormulaReport(NamedTuple):
    """One check; to_dict gives its 7-key JSON record."""

    label: str
    lhs: str
    rhs: str
    abs_error: str
    digits_requested: int
    passed: bool
    branch_flags: tuple[str, ...] = ()

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
        flags = f"  [{'; '.join(self.branch_flags)}]" if self.branch_flags else ""
        return f"{status}  {self.label}  abs_error={self.abs_error}{flags}"


def make_report(label, lhs, rhs, ctx: PrecisionCtx, branch_flags=(), digits=None) -> FormulaReport:
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
        branch_flags=branch_flags,
    )


def report_acceptable(report: FormulaReport) -> bool:
    """Pass, except the around-one identity may instead carry a quantified
    branch-discrepancy flag (its principal-branch convention is open)."""
    if report.passed:
        return True
    return report.label.startswith("around-one-identity") and any(
        "measured lhs/rhs" in flag for flag in report.branch_flags
    )
