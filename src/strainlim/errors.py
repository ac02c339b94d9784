"""Exception types shared across the package, and its one rule for numbers."""

import math
import numbers


class StrainLimError(Exception):
    """Base class for every error this package raises on purpose."""


class NotPositiveDefinite(StrainLimError):
    """A tensor that must be positive definite has an eigenvalue at or below tolerance."""


class Singular(StrainLimError):
    """Matrix inversion requested for a (near-)singular tensor."""


class InvalidAxis(StrainLimError):
    """Rotation axis is not a unit vector within tolerance."""


class OutOfDomain(StrainLimError):
    """An argument lies outside the ball or interval where the map is defined."""


class InadmissibleDelta(StrainLimError):
    """The limiting-strain parameter is outside the family's certified range."""


class NonpositiveModulus(StrainLimError):
    """Generalized modulus dropped below its guaranteed positive lower bound."""


class SingularLeading(StrainLimError):
    """Leading-order profile denominator vanished (precondition violation)."""


class Saturation(StrainLimError):
    """Requested strain is at or beyond the limiting value; no finite stress attains it."""


class NoConvergence(StrainLimError):
    """No iterate met the residual tolerance, or the working ball holds no fixed point."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class FitUnderdetermined(StrainLimError):
    """Fewer than four usable rows, or usable rows of one delta: no trustworthy log-log slope."""


class InvalidParameter(StrainLimError, ValueError):
    """A library call got a parameter outside its documented range."""


class ConfigInvalid(StrainLimError):
    """Experiment configuration failed validation."""


class StudyFailed(StrainLimError):
    """A study ran but did not meet its acceptance thresholds."""


def real(value, name) -> float:
    """`value` as a Python float, an int past the float range as +-inf;
    InvalidParameter naming `name` unless it is an int or a float (numpy
    scalars too, never a bool). Range checks, NaN and inf too, are the caller's."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def integer(value, name, least, most=math.inf) -> int:
    """`value` as a Python int; InvalidParameter naming `name` unless it is an
    integer (numpy too, bools not) of at least `least` and at most `most`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not (
            least <= value <= most):
        bound = f"of at least {least}" if most == math.inf else f"in [{least}, {most}]"
        raise InvalidParameter(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)
