"""Finite-deformation kinematics: rotations, deformation gradients, strain measures.

A deformation gradient is assembled either from a Green strain, F = R (I +
2E)^{1/2}, or from a Hencky strain, F = e^H R, with R a rotation whose
distance from the identity scales linearly in the limiting-strain
parameter. Every derived measure (C, B, E, linearized strain, Hencky
strain, density ratio) is recomputed from F so the state is internally
consistent by construction. F and R are float (3, 3) numpy arrays.

Every function also takes the batch format of `symtensor`: strains and
stresses of (N,) columns, (N, 3, 3) stacks of F and R, and an (N,) column
of deltas; one row against N broadcasts. Each row is bit for bit the
single call on that row, and a batch raises the first failing check's
error for its first failing row, with the single call's message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAxis, InvalidParameter, OutOfDomain, Singular, real
from .symtensor import (SymTensor, check_rows, det, entries, inverse, is_finite, is_rotation,
                        rows, spd_sqrt, sym_exp, sym_log, trace)


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


def make_rotation(spec: RotationSpec, delta) -> np.ndarray:
    """Generate R_delta, a (3, 3) array, via the closed-form Rodrigues formula;
    an (N,) column of deltas gives an (N, 3, 3) stack.

    Raises InvalidParameter for a delta that is not a finite, positive number
    (`errors.real`), or whose angle overflows; the spec was checked when it
    was built.
    """
    delta = np.asarray(delta if isinstance(delta, np.ndarray) else real(delta, "delta"),
                       dtype=float)
    check_rows((0.0 < delta) & (delta < math.inf), InvalidParameter,  # NaN fails too
               lambda k: f"delta must be finite and positive, got {float(delta.ravel()[k])!r}")
    ax = unit_axis(spec.axis)
    # unit-Frobenius generator: angle = delta * coefficient / sqrt(2)
    with np.errstate(over="ignore"):  # checked below
        angle = delta * spec.magnitude_coefficient / math.sqrt(2.0)
    check_rows(angle < math.inf, InvalidParameter, lambda k: (
        f"delta * magnitude_coefficient overflows, delta = {float(delta.ravel()[k])!r}"))
    k = np.array(
        [
            [0.0, -ax[2], ax[1]],
            [ax[2], 0.0, -ax[0]],
            [-ax[1], ax[0], 0.0],
        ]
    )
    # math.sin and math.cos per angle: numpy's vector versions round differently
    sin, cos = (np.reshape([fn(x) for x in angle.ravel().tolist()], angle.shape + (1, 1))
                for fn in (math.sin, math.cos))
    return np.eye(3) + sin * k + (1.0 - cos) * (k @ k)


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
    array; delta0 is the Frobenius distance of F from the identity. For a
    batch, F is an (N, 3, 3) stack and every other field holds (N,) columns."""

    F: np.ndarray
    C: SymTensor
    B: SymTensor
    E: SymTensor
    eps: SymTensor
    H: SymTensor
    density_ratio: float
    delta0: float


def _row(x, k):
    """Row k of a batch for a message: a SymTensor of floats or a nested list."""
    if isinstance(x, SymTensor):
        r = rows(x)
        return r[k if len(r) > 1 else 0]
    return (x[k] if x.ndim > 2 else x).tolist()


def _state_from_f(F: np.ndarray) -> DeformationState:
    I = SymTensor.identity()
    with np.errstate(over="ignore", invalid="ignore"):  # each overflow is checked below
        Ft = np.swapaxes(F, -1, -2)
        FtF, FFt = Ft @ F, F @ Ft
        check_rows(np.isfinite(FtF).all(axis=(-2, -1)) & np.isfinite(FFt).all(axis=(-2, -1)),
                   OutOfDomain, lambda k: f"F^T F overflows for F = {_row(F, k)!r}")
        C, B = SymTensor.from_matrix(FtF), SymTensor.from_matrix(FFt)
        E = (C - I) * 0.5
        eps = SymTensor.from_matrix(F) - I
        H = sym_log(B) * 0.5
        d = det(F)
        check_rows(np.logical_not(d <= 1e-14), Singular, lambda k: (
            f"det F = {float(np.ravel(d)[k])!r} is not a finite number above 1e-14"))
        # summed entry by entry in row-major order; np.linalg.norm changes the last digits
        squares = sum(x * x for x in entries(F - np.eye(3)))
        delta0 = np.sqrt(squares) if isinstance(squares, np.ndarray) else math.sqrt(squares)
        check_rows((d < math.inf) & (delta0 < math.inf), OutOfDomain,  # NaN fails too
                   lambda k: f"det F or |F - I| overflows for F = {_row(F, k)!r}")
        return DeformationState(F, C, B, E, eps, H, 1.0 / d, delta0)


def deformation_from_green(E: SymTensor, R: np.ndarray) -> DeformationState:
    """F = R (I + 2E)^{1/2}; requires I + 2E positive definite and E finite."""
    if not np.all(is_rotation(R)):
        raise InvalidParameter("R does not satisfy the rotation invariants")
    # as spd_sqrt would, before 2E meets an int past the float range
    check_rows(is_finite(E), InvalidParameter,
               lambda k: f"E needs finite components, got {_row(E, k).components()!r}")
    with np.errstate(over="ignore"):  # an inf in 2E, as in Python floats, which spd_sqrt names
        u = spd_sqrt(SymTensor.identity() + E * 2.0)
    return _state_from_f(R @ u.as_matrix())


def deformation_from_hencky(H: SymTensor, R: np.ndarray) -> DeformationState:
    """F = e^H R; OutOfDomain if e^H or F^T F overflows."""
    if not np.all(is_rotation(R)):
        raise InvalidParameter("R does not satisfy the rotation invariants")
    return _state_from_f(sym_exp(H).as_matrix() @ R)


def sigma_from_piola(F: np.ndarray, Sbar: SymTensor) -> SymTensor:
    """Symmetric part of the first Piola stress: (F Sbar + Sbar F^T) / 2;
    InvalidParameter for a non-finite F or Sbar, OutOfDomain on overflow."""
    check_rows(np.isfinite(F).all(axis=(-2, -1)) & is_finite(Sbar), InvalidParameter, lambda k: (
        f"F and Sbar need finite entries, got {_row(F, k)!r}, {_row(Sbar, k)!r}"))
    return _finite_stress(lambda: SymTensor.from_matrix(F @ Sbar.as_matrix()), F)


def sigma_from_cauchy(F: np.ndarray, T: SymTensor) -> SymTensor:
    """det(F) * (T F^{-T} + F^{-1} T) / 2; Singular for a degenerate or
    non-finite F, InvalidParameter for a non-finite T, OutOfDomain on overflow."""
    check_rows(is_finite(T), InvalidParameter,
               lambda k: f"T needs finite components, got {_row(T, k).components()!r}")
    return _finite_stress(lambda: SymTensor.from_matrix(inverse(F) @ T.as_matrix()) * det(F), F)


def _finite_stress(pushforward, F: np.ndarray) -> SymTensor:
    # an overflow, in numpy or in Python floats, leaves an inf or a NaN behind
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = pushforward()
    check_rows(is_finite(sigma), OutOfDomain,
               lambda k: f"the pushed-forward stress overflows for F = {_row(F, k)!r}")
    return sigma


def density_linearization_gap(state: DeformationState) -> float:
    """|density_ratio - (1 - tr eps)|, the quadratic remainder of the density law."""
    return abs(state.density_ratio - (1.0 - trace(state.eps)))
