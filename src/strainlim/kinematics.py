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

from .errors import InvalidAxis, Singular
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
    cm = fm.T @ fm
    bm = fm @ fm.T
    C = SymTensor(cm[0, 0], cm[1, 1], cm[2, 2], cm[0, 1], cm[0, 2], cm[1, 2])
    B = SymTensor(bm[0, 0], bm[1, 1], bm[2, 2], bm[0, 1], bm[0, 2], bm[1, 2])
    E = SymTensor(
        0.5 * (C.xx - 1.0),
        0.5 * (C.yy - 1.0),
        0.5 * (C.zz - 1.0),
        0.5 * C.xy,
        0.5 * C.xz,
        0.5 * C.yz,
    )
    eps = SymTensor(
        fm[0, 0] - 1.0,
        fm[1, 1] - 1.0,
        fm[2, 2] - 1.0,
        0.5 * (fm[0, 1] + fm[1, 0]),
        0.5 * (fm[0, 2] + fm[2, 0]),
        0.5 * (fm[1, 2] + fm[2, 1]),
    )
    H = sym_log(B) * 0.5
    d = det(F)
    if d <= 1e-14:
        raise Singular(f"det F = {d!r} is not positive")
    return DeformationState(F, C, B, E, eps, H, 1.0 / d)


def deformation_from_green(E: SymTensor, R: Tensor3) -> DeformationState:
    """F = R (I + 2E)^{1/2}; requires I + 2E positive definite."""
    if not is_rotation(R):
        raise ValueError("R does not satisfy the rotation invariants")
    c0 = SymTensor(
        1.0 + 2.0 * E.xx,
        1.0 + 2.0 * E.yy,
        1.0 + 2.0 * E.zz,
        2.0 * E.xy,
        2.0 * E.xz,
        2.0 * E.yz,
    )
    u = spd_sqrt(c0)
    return _state_from_f(R.as_matrix() @ u.as_matrix())


def deformation_from_hencky(H: SymTensor, R: Tensor3) -> DeformationState:
    """F = e^H R."""
    if not is_rotation(R):
        raise ValueError("R does not satisfy the rotation invariants")
    return _state_from_f(sym_exp(H).as_matrix() @ R.as_matrix())


def sigma_from_piola(F: Tensor3, Sbar: SymTensor) -> SymTensor:
    """Symmetric part of the first Piola stress: (F Sbar + Sbar F^T) / 2."""
    m = F.as_matrix() @ Sbar.as_matrix()
    return SymTensor(
        m[0, 0],
        m[1, 1],
        m[2, 2],
        0.5 * (m[0, 1] + m[1, 0]),
        0.5 * (m[0, 2] + m[2, 0]),
        0.5 * (m[1, 2] + m[2, 1]),
    )


def sigma_from_cauchy(F: Tensor3, T: SymTensor) -> SymTensor:
    """det(F) * (T F^{-T} + F^{-1} T) / 2; raises Singular for degenerate F."""
    d = det(F)
    if abs(d) <= 1e-14:
        raise Singular(f"det F = {d!r} too small")
    m = inverse(F).as_matrix() @ T.as_matrix()
    return SymTensor(
        d * m[0, 0],
        d * m[1, 1],
        d * m[2, 2],
        d * 0.5 * (m[0, 1] + m[1, 0]),
        d * 0.5 * (m[0, 2] + m[2, 0]),
        d * 0.5 * (m[1, 2] + m[2, 1]),
    )


def density_linearization_gap(state: DeformationState) -> float:
    """|density_ratio - (1 - tr eps)|, the quadratic remainder of the density law."""
    return abs(state.density_ratio - (1.0 - trace(state.eps)))
