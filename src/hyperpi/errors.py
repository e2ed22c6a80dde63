"""Exception types shared across the library."""


class RegionError(ValueError):
    """Hypergeometric argument lies outside the supported evaluation regions."""


class IndeterminateFormError(ArithmeticError):
    """A raw formula hits a 0/0 point; a combined form must be used instead."""


class ReductionError(RuntimeError):
    """Upper-half-plane reduction failed to terminate within the step cap."""
