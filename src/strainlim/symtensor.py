"""Symmetric 3x3 tensor algebra with spectral operations.

Symmetric tensors are stored as six plain floats so the hot operations
(norm, trace, determinant) stay allocation-free; full 3x3 values only
appear on the spectral paths. Components may also be numpy columns, which
`frobenius`, `trace`, `det` and the arithmetic then treat row by row. A
general 3x3 tensor (a deformation gradient, a rotation, an eigenframe) is
a float (3, 3) numpy array, which `det` and `inverse` also take. The
eigensolver is `np.linalg.eigh` (LAPACK's symmetric solver `syevd`), which,
unlike the closed-form cubic, does not lose accuracy near repeated
eigenvalues. The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoConvergence, NotPositiveDefinite, OutOfDomain, Singular

# eigenvalues at or below this are treated as nonpositive
EIG_POSITIVITY_TOL = 1e-14


@dataclass(frozen=True)
class SymTensor:
    """Symmetric 3x3 tensor; components (xx, yy, zz, xy, xz, yz)."""

    xx: float = 0.0
    yy: float = 0.0
    zz: float = 0.0
    xy: float = 0.0
    xz: float = 0.0
    yz: float = 0.0

    @staticmethod
    def identity() -> "SymTensor":
        return SymTensor(1.0, 1.0, 1.0)

    @staticmethod
    def from_matrix(m) -> "SymTensor":
        """Symmetric part of a 3x3 array or nested list, as six plain floats."""
        (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float).tolist()
        return SymTensor(a, e, i, 0.5 * (b + d), 0.5 * (c + g), 0.5 * (f + h))

    def as_matrix(self) -> np.ndarray:
        # both triangles from the same float, so the result is symmetric bit-exactly
        return np.array(
            [
                [self.xx, self.xy, self.xz],
                [self.xy, self.yy, self.yz],
                [self.xz, self.yz, self.zz],
            ]
        )

    def components(self) -> tuple:
        return (self.xx, self.yy, self.zz, self.xy, self.xz, self.yz)

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return SymTensor(
            self.xx + other.xx,
            self.yy + other.yy,
            self.zz + other.zz,
            self.xy + other.xy,
            self.xz + other.xz,
            self.yz + other.yz,
        )

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return SymTensor(
            self.xx - other.xx,
            self.yy - other.yy,
            self.zz - other.zz,
            self.xy - other.xy,
            self.xz - other.xz,
            self.yz - other.yz,
        )

    def __mul__(self, s: float) -> "SymTensor":
        return SymTensor(
            self.xx * s,
            self.yy * s,
            self.zz * s,
            self.xy * s,
            self.xz * s,
            self.yz * s,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "SymTensor":
        return self * -1.0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and the orthogonal eigenvector frame, a (3, 3)
    array whose columns are the eigenvectors."""

    eigenvalues: tuple
    frame: np.ndarray


def frobenius(A):
    """Frobenius norm sqrt(tr(A A^T)); (N,) row norms for columns or (N, 6) arrays."""
    if isinstance(A, SymTensor):
        s = (
            A.xx * A.xx
            + A.yy * A.yy
            + A.zz * A.zz
            + 2.0 * (A.xy * A.xy + A.xz * A.xz + A.yz * A.yz)
        )
        return math.sqrt(s) if isinstance(s, float) else np.sqrt(s)
    return frobenius(SymTensor(*A.T))


def trace(A: SymTensor) -> float:
    return A.xx + A.yy + A.zz


def inner(A: SymTensor, B: SymTensor) -> float:
    """Matrix inner product tr(A B) for symmetric arguments."""
    return (
        A.xx * B.xx
        + A.yy * B.yy
        + A.zz * B.zz
        + 2.0 * (A.xy * B.xy + A.xz * B.xz + A.yz * B.yz)
    )


def det(A) -> float:
    """Determinant by cofactor expansion; A is a SymTensor or a (3, 3) array."""
    if isinstance(A, SymTensor):
        return (
            A.xx * (A.yy * A.zz - A.yz * A.yz)
            - A.xy * (A.xy * A.zz - A.yz * A.xz)
            + A.xz * (A.xy * A.yz - A.yy * A.xz)
        )
    (a, b, c), (d, e, f), (g, h, i) = A.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse(A):
    """Inverse of a SymTensor or a (3, 3) array via the adjugate; raises Singular."""
    d = det(A)
    if not 1e-14 < abs(d) < math.inf:  # NaN fails too
        raise Singular(f"determinant {d!r} is not a finite number above 1e-14")
    if isinstance(A, SymTensor):
        # adjugate of a symmetric matrix is symmetric
        return SymTensor(
            (A.yy * A.zz - A.yz * A.yz) / d,
            (A.xx * A.zz - A.xz * A.xz) / d,
            (A.xx * A.yy - A.xy * A.xy) / d,
            (A.xz * A.yz - A.xy * A.zz) / d,
            (A.xy * A.yz - A.xz * A.yy) / d,
            (A.xy * A.xz - A.xx * A.yz) / d,
        )
    (a, b, c), (e, f, g), (h, i, j) = A.tolist()
    adj = [
        [f * j - g * i, c * i - b * j, b * g - c * f],
        [g * h - e * j, a * j - c * h, c * e - a * g],
        [e * i - f * h, b * h - a * i, a * f - b * e],
    ]
    return np.array(adj) / d


def central_differences(fn, point: SymTensor, h: float) -> list:
    """Central difference quotients of `fn` in the six stored components of `point`.

    `fn` maps the twelve probes (component lists, six steps of +h then six
    of -h) to twelve values; returns the six quotients (v[j] - v[j+6]) / 2h.
    """
    probes = [list(point.components()) for _ in range(12)]
    for j in range(6):
        probes[j][j] += h
        probes[j + 6][j] -= h
    v = fn(probes)
    return [(v[j] - v[j + 6]) / (2.0 * h) for j in range(6)]


def is_rotation(R: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.isfinite(R).all() and np.linalg.norm(R.T @ R - np.eye(3)) <= tol
                and np.linalg.det(R) > 0.0)


def eig_sym(A: SymTensor) -> Spectrum:
    """Spectral decomposition by LAPACK's symmetric divide-and-conquer solver.

    Eigenvalues sorted descending (ties keep LAPACK's order); each
    eigenvector's largest-magnitude component is made positive so the
    output is deterministic. Raises InvalidParameter for NaN or inf input
    and NoConvergence if LAPACK reports a failure.
    """
    if not all(map(math.isfinite, A.components())):
        raise InvalidParameter(f"eig_sym needs finite components, got {A.components()!r}")
    # eigh (LAPACK syevd) sorts ascending, so solving for -A yields the
    # descending order
    try:
        neg_evals, v = np.linalg.eigh(-A.as_matrix())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK syevd failed: {exc}") from None
    # sign convention: each column's largest-magnitude component is nonnegative
    cols = [c if max(c, key=abs) >= 0.0 else [-x for x in c] for c in v.T.tolist()]
    return Spectrum(tuple((-neg_evals).tolist()), np.array(cols).T)


def _spectral_map(A: SymTensor, fn, require_pd: bool) -> SymTensor:
    spec = eig_sym(A)
    lam_min = min(spec.eigenvalues)
    if require_pd and not (lam_min > EIG_POSITIVITY_TOL):
        raise NotPositiveDefinite(f"eigenvalue {lam_min!r} at or below {EIG_POSITIVITY_TOL}")
    v = spec.frame
    out = (v * [fn(x) for x in spec.eigenvalues]) @ v.T
    return SymTensor.from_matrix(out)


def spd_sqrt(C: SymTensor) -> SymTensor:
    """Symmetric positive definite square root."""
    return _spectral_map(C, math.sqrt, require_pd=True)


def sym_log(B: SymTensor) -> SymTensor:
    """Matrix logarithm of a symmetric positive definite tensor."""
    return _spectral_map(B, math.log, require_pd=True)


def sym_exp(H: SymTensor) -> SymTensor:
    """Matrix exponential of a symmetric tensor; OutOfDomain if exp overflows."""
    try:
        return _spectral_map(H, math.exp, require_pd=False)
    except OverflowError:
        raise OutOfDomain(f"eigenvalue {max(eig_sym(H).eigenvalues)!r} overflows exp") from None
