"""Exception types shared across the package."""


class StrainLimError(Exception):
    """Base class for every error this package raises on purpose."""


class NotPositiveDefinite(StrainLimError):
    """A tensor that must be positive definite has an eigenvalue at or below tolerance."""


class Singular(StrainLimError):
    """Matrix inversion requested for a (near-)singular tensor."""


class InvalidAxis(StrainLimError):
    """Rotation axis is not a unit vector within tolerance."""


class OutOfDomain(StrainLimError):
    """Strain or stress argument lies outside the family's admissible ball."""


class InadmissibleDelta(StrainLimError):
    """The limiting-strain parameter is outside the family's certified range."""


class NonpositiveModulus(StrainLimError):
    """Generalized modulus dropped below its guaranteed positive lower bound."""


class SingularLeading(StrainLimError):
    """Leading-order profile denominator vanished (precondition violation)."""


class Saturation(StrainLimError):
    """Requested strain is at or beyond the limiting value; no finite stress attains it."""


class DomainError(StrainLimError):
    """Scalar kinematic map evaluated outside its domain of definition."""


class NoConvergence(StrainLimError):
    """Iteration budget exhausted before the residual tolerance was met."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class FitUnderdetermined(StrainLimError):
    """Fewer than four usable rows; a log-log slope cannot be trusted."""


class AllZeroResiduals(StrainLimError):
    """Every residual is exactly zero: the identity holds exactly.

    Callers treat this as success (there is no order to fit), not failure.
    """


class InvalidParameter(StrainLimError, ValueError):
    """A library call got a parameter outside its documented range."""


class ConfigInvalid(StrainLimError):
    """Experiment configuration failed validation."""


class StudyFailed(StrainLimError):
    """A study ran but did not meet its acceptance thresholds."""
