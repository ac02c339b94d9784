"""Finite-deformation kinematics: rotations, deformation gradients, strain measures.

A deformation gradient is assembled either from a Green strain, F = R (I +
2E)^{1/2}, or from a Hencky strain, F = e^H R, with R a rotation whose
distance from the identity scales linearly in the limiting-strain
parameter. Every derived measure (C, B, E, linearized strain, Hencky
strain, density ratio) is recomputed from F so the state is internally
consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAxis, InvalidParameter, Singular
from .symtensor import (SymTensor, Tensor3, frobenius, det, inverse, is_rotation, spd_sqrt,
                        sym_exp, sym_log, trace)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation family R_delta = exp(delta * coefficient * W_hat).

    W_hat is the skew generator of `axis` normalized to unit Frobenius norm,
    so |R_delta - I| <= coefficient * delta (and a fortiori <= coefficient *
    delta * e^{coefficient * delta}). The geometric rotation angle is
    coefficient * delta / sqrt(2).
    """

    axis: tuple
    magnitude_coefficient: float
    mode: str = "exact_exponential"


def make_rotation(spec: RotationSpec, delta: float) -> Tensor3:
    """Generate R_delta via the closed-form Rodrigues formula.

    Raises InvalidAxis if |axis| deviates from 1 by more than 1e-8.
    """
    if spec.mode != "exact_exponential":
        raise ValueError(f"unsupported rotation mode {spec.mode!r}")
    if not delta > 0.0:  # each check fails for NaN too
        raise ValueError("delta must be positive")
    if not spec.magnitude_coefficient >= 0.0:
        raise ValueError("magnitude_coefficient must be nonnegative")
    ax = np.asarray(spec.axis, dtype=float)
    n = float(np.linalg.norm(ax))
    if not abs(n - 1.0) <= 1e-8:
        raise InvalidAxis(f"|axis| = {n!r} is not 1 within 1e-8")
    ax = ax / n
    # unit-Frobenius generator: angle = delta * coefficient / sqrt(2)
    angle = delta * spec.magnitude_coefficient / math.sqrt(2.0)
    k = np.array(
        [
            [0.0, -ax[2], ax[1]],
            [ax[2], 0.0, -ax[0]],
            [-ax[1], ax[0], 0.0],
        ]
    )
    r = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return Tensor3.from_matrix(r)


@dataclass(frozen=True)
class DeformationState:
    """All strain measures derived from one deformation gradient."""

    F: Tensor3
    C: SymTensor
    B: SymTensor
    E: SymTensor
    eps: SymTensor
    H: SymTensor
    density_ratio: float

    @property
    def delta0(self) -> float:
        """Frobenius distance of F from the identity."""
        return frobenius(self.F - Tensor3.identity())


def _state_from_f(fm: np.ndarray) -> DeformationState:
    F = Tensor3.from_matrix(fm)
    I = SymTensor.identity()
    C = SymTensor.from_matrix(fm.T @ fm)
    B = SymTensor.from_matrix(fm @ fm.T)
    E = (C - I) * 0.5
    eps = SymTensor.from_matrix(fm) - I
    H = sym_log(B) * 0.5
    d = det(F)
    if d <= 1e-14:
        raise Singular(f"det F = {d!r} is not positive")
    return DeformationState(F, C, B, E, eps, H, 1.0 / d)


def deformation_from_green(E: SymTensor, R: Tensor3) -> DeformationState:
    """F = R (I + 2E)^{1/2}; requires I + 2E positive definite."""
    if not is_rotation(R):
        raise ValueError("R does not satisfy the rotation invariants")
    u = spd_sqrt(SymTensor.identity() + E * 2.0)
    return _state_from_f(R.as_matrix() @ u.as_matrix())


def deformation_from_hencky(H: SymTensor, R: Tensor3) -> DeformationState:
    """F = e^H R."""
    if not is_rotation(R):
        raise ValueError("R does not satisfy the rotation invariants")
    return _state_from_f(sym_exp(H).as_matrix() @ R.as_matrix())


def sigma_from_piola(F: Tensor3, Sbar: SymTensor) -> SymTensor:
    """Symmetric part of the first Piola stress: (F Sbar + Sbar F^T) / 2."""
    return SymTensor.from_matrix(F.as_matrix() @ Sbar.as_matrix())


def sigma_from_cauchy(F: Tensor3, T: SymTensor) -> SymTensor:
    """det(F) * (T F^{-T} + F^{-1} T) / 2; raises Singular for a degenerate or
    non-finite F and InvalidParameter for a non-finite T."""
    if not all(map(math.isfinite, T.components())):
        raise InvalidParameter(f"T needs finite components, got {T.components()!r}")
    return SymTensor.from_matrix(inverse(F).as_matrix() @ T.as_matrix()) * det(F)


def density_linearization_gap(state: DeformationState) -> float:
    """|density_ratio - (1 - tr eps)|, the quadratic remainder of the density law."""
    return abs(state.density_ratio - (1.0 - trace(state.eps)))
