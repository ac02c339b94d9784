"""Finite-deformation kinematics: rotations, deformation gradients, strain measures.

A deformation gradient is assembled either from a Green strain, F = R (I +
2E)^{1/2}, or from a Hencky strain, F = e^H R, with R a rotation whose
distance from the identity scales linearly in the limiting-strain
parameter. Every derived measure (C, B, E, linearized strain, Hencky
strain, density ratio) is recomputed from F so the state is internally
consistent by construction. F and R are float (3, 3) numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAxis, InvalidParameter, OutOfDomain, Singular, real
from .symtensor import (
    SymTensor, det, inverse, is_finite, is_rotation, spd_sqrt, sym_exp, sym_log, trace)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation family R_delta = exp(delta * coefficient * W_hat).

    W_hat is the skew generator of `axis` normalized to unit Frobenius norm,
    so |R_delta - I| <= coefficient * delta (and a fortiori <= coefficient *
    delta * e^{coefficient * delta}). The geometric rotation angle is
    coefficient * delta / sqrt(2). The exponential is the only construction:
    `make_rotation` evaluates it exactly with Rodrigues' formula. Building a
    spec stores the axis as a tuple of floats and the coefficient as a float
    (`errors.real`, InvalidParameter for a value that is not a number), then
    raises InvalidAxis for a bad axis and InvalidParameter unless the
    coefficient is finite and nonnegative.
    """

    axis: tuple
    magnitude_coefficient: float

    def __post_init__(self):
        if not (isinstance(self.axis, (tuple, list)) and len(self.axis) == 3):
            raise InvalidAxis(f"axis must be three finite numbers, got {self.axis!r}")
        object.__setattr__(self, "axis", tuple(real(x, "axis") for x in self.axis))
        unit_axis(self.axis)  # an inf or NaN entry fails the norm test
        k = real(self.magnitude_coefficient, "magnitude_coefficient")
        if not 0.0 <= k < math.inf:
            raise InvalidParameter(
                f"magnitude_coefficient must be a finite, nonnegative number, got {k!r}")
        object.__setattr__(self, "magnitude_coefficient", k)


def make_rotation(spec: RotationSpec, delta: float) -> np.ndarray:
    """Generate R_delta, a (3, 3) array, via the closed-form Rodrigues formula.

    Raises InvalidParameter for a delta that is not a finite, positive number
    (`errors.real`), or whose angle overflows; the spec was checked when it
    was built.
    """
    delta = real(delta, "delta")
    if not 0.0 < delta < math.inf:  # each check fails for NaN too
        raise InvalidParameter(f"delta must be finite and positive, got {delta!r}")
    ax = unit_axis(spec.axis)
    # unit-Frobenius generator: angle = delta * coefficient / sqrt(2)
    angle = delta * spec.magnitude_coefficient / math.sqrt(2.0)
    if not angle < math.inf:
        raise InvalidParameter(f"delta * magnitude_coefficient overflows, delta = {delta!r}")
    k = np.array(
        [
            [0.0, -ax[2], ax[1]],
            [ax[2], 0.0, -ax[0]],
            [-ax[1], ax[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def unit_axis(axis) -> np.ndarray:
    """Three finite numbers over their norm; InvalidAxis unless the norm is 1 within 1e-8."""
    ax = np.asarray(axis, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the check
        n = float(np.linalg.norm(ax))
    if not abs(n - 1.0) <= 1e-8:
        raise InvalidAxis(f"|axis| = {n!r} is not 1 within 1e-8")
    return ax / n


@dataclass(frozen=True)
class DeformationState:
    """All strain measures derived from one deformation gradient F, a (3, 3)
    array; delta0 is the Frobenius distance of F from the identity."""

    F: np.ndarray
    C: SymTensor
    B: SymTensor
    E: SymTensor
    eps: SymTensor
    H: SymTensor
    density_ratio: float
    delta0: float


def _state_from_f(F: np.ndarray) -> DeformationState:
    I = SymTensor.identity()
    try:
        with np.errstate(over="raise"):
            C, B = SymTensor.from_matrix(F.T @ F), SymTensor.from_matrix(F @ F.T)
    except FloatingPointError:
        raise OutOfDomain(f"F^T F overflows for F = {F.tolist()!r}") from None
    E = (C - I) * 0.5
    eps = SymTensor.from_matrix(F) - I
    H = sym_log(B) * 0.5
    d = det(F)
    if d <= 1e-14:
        raise Singular(f"det F = {d!r} is not a finite number above 1e-14")
    # summed entry by entry in row-major order; np.linalg.norm changes the last digits
    delta0 = math.sqrt(sum(x * x for x in (F - np.eye(3)).ravel().tolist()))
    if not (d < math.inf and delta0 < math.inf):  # NaN fails too
        raise OutOfDomain(f"det F or |F - I| overflows for F = {F.tolist()!r}")
    return DeformationState(F, C, B, E, eps, H, 1.0 / d, delta0)


def deformation_from_green(E: SymTensor, R: np.ndarray) -> DeformationState:
    """F = R (I + 2E)^{1/2}; requires I + 2E positive definite and E finite."""
    if not is_rotation(R):
        raise InvalidParameter("R does not satisfy the rotation invariants")
    if not is_finite(E):  # as spd_sqrt would, before 2E meets an int past the float range
        raise InvalidParameter(f"E needs finite components, got {E.components()!r}")
    u = spd_sqrt(SymTensor.identity() + E * 2.0)
    return _state_from_f(R @ u.as_matrix())


def deformation_from_hencky(H: SymTensor, R: np.ndarray) -> DeformationState:
    """F = e^H R; OutOfDomain if e^H or F^T F overflows."""
    if not is_rotation(R):
        raise InvalidParameter("R does not satisfy the rotation invariants")
    return _state_from_f(sym_exp(H).as_matrix() @ R)


def sigma_from_piola(F: np.ndarray, Sbar: SymTensor) -> SymTensor:
    """Symmetric part of the first Piola stress: (F Sbar + Sbar F^T) / 2;
    InvalidParameter for a non-finite F or Sbar, OutOfDomain on overflow."""
    if not (np.isfinite(F).all() and is_finite(Sbar)):
        raise InvalidParameter(f"F and Sbar need finite entries, got {F.tolist()!r}, {Sbar!r}")
    return _finite_stress(lambda: SymTensor.from_matrix(F @ Sbar.as_matrix()), F)


def sigma_from_cauchy(F: np.ndarray, T: SymTensor) -> SymTensor:
    """det(F) * (T F^{-T} + F^{-1} T) / 2; Singular for a degenerate or
    non-finite F, InvalidParameter for a non-finite T, OutOfDomain on overflow."""
    if not is_finite(T):
        raise InvalidParameter(f"T needs finite components, got {T.components()!r}")
    return _finite_stress(lambda: SymTensor.from_matrix(inverse(F) @ T.as_matrix()) * det(F), F)


def _finite_stress(pushforward, F: np.ndarray) -> SymTensor:
    # an overflow, in numpy or in Python floats, leaves an inf or a NaN behind
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = pushforward()
    if not is_finite(sigma):
        raise OutOfDomain(f"the pushed-forward stress overflows for F = {F.tolist()!r}")
    return sigma


def density_linearization_gap(state: DeformationState) -> float:
    """|density_ratio - (1 - tr eps)|, the quadratic remainder of the density law."""
    return abs(state.density_ratio - (1.0 - trace(state.eps)))
