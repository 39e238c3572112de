"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SelfDualError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SelfDualError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NoDensity(SelfDualError):
    """The model has no Lebesgue density (e.g. atomic distribution)."""


class AtomicModel(SelfDualError):
    """Operation requires a non-atomic distribution."""


class UnsupportedSampler(SelfDualError):
    """No sampling recipe is registered for the model."""


class QuadratureFailure(SelfDualError):
    """Adaptive quadrature did not reach the requested tolerance."""


class MomentDiverges(SelfDualError):
    """A requested moment is infinite.

    ``critical_exponent`` carries the boundary of the finite-moment range
    when it is known analytically.
    """

    def __init__(self, message: str, critical_exponent: float | None = None):
        super().__init__(message)
        self.critical_exponent = critical_exponent


class NotIntegrable(SelfDualError):
    """A density extension or transform has infinite mass."""


class ZeroDensity(SelfDualError):
    """Density vanishes at a point where a ratio is required."""


class NoBracket(SelfDualError):
    """Root scan found no sign change in the search interval."""


class InfiniteActivity(SelfDualError):
    """Jump measure has infinite total mass; simulation unsupported."""


class PatternViolation(SelfDualError):
    """Covariance matrix fails the numeraire-symmetry pattern."""


class GeometryViolation(SelfDualError):
    """Strike/forward configuration violates a required constraint."""


class SymmetryPrereqFailed(SelfDualError):
    """A hedge construction requires a symmetry the driver does not have."""


class SchemaError(SelfDualError):
    """Model-spec document failed validation.

    ``violations`` lists every problem found, each prefixed with the
    path to the offending field.
    """

    def __init__(self, violations: list[str]):
        super().__init__("invalid model spec:\n" + "\n".join(violations))
        self.violations = violations
