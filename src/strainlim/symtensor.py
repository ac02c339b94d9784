"""Symmetric 3x3 tensor algebra with spectral operations.

Symmetric tensors are stored as six plain floats so the hot operations
(norm, trace, determinant) stay allocation-free; full 3x3 values only
appear on the spectral paths. Components may also be numpy columns, which
`frobenius`, `trace`, `det` and the arithmetic then treat row by row; `columns`
alone turns (N, 6) arrays of components into such tensors. A general 3x3
tensor (a deformation gradient, a rotation, an eigenframe) is a float (3, 3)
numpy array: `det` also takes one, `inverse` only takes one. The eigensolver
is `np.linalg.eigh` (LAPACK's symmetric solver `syevd`), which, unlike the
closed-form cubic, does not lose accuracy near repeated eigenvalues. The
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NoConvergence, NotPositiveDefinite, OutOfDomain, Singular

# eigenvalues at or below this are treated as nonpositive
EIG_POSITIVITY_TOL = 1e-14
# largest Frobenius norm of R^T R - I that is_rotation accepts
ROTATION_TOL = 1e-12


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
        # halving first cannot overflow, and halving a normal float is exact
        return SymTensor(a, e, i, 0.5 * b + 0.5 * d, 0.5 * c + 0.5 * g, 0.5 * f + 0.5 * h)

    def as_matrix(self) -> np.ndarray:
        # both triangles from the same float, so the result is symmetric bit-exactly;
        # dtype=float reads an int past numpy's integers as a float, not an object
        return np.array([[self.xx, self.xy, self.xz],
                         [self.xy, self.yy, self.yz],
                         [self.xz, self.yz, self.zz]], dtype=float)

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


def columns(*batches) -> list:
    """SymTensors of (N,) columns from batches: (N, 6) component arrays, or SymTensors
    of one row or of (N,) columns. The one reader of the (N, 6) format; any other
    shape, and row counts that do not broadcast, raise InvalidParameter."""
    try:
        arrays = [np.atleast_2d(np.asarray(b.components(), dtype=float).T)
                  if isinstance(b, SymTensor) else np.asarray(b, dtype=float) for b in batches]
        if any(a.shape[1:] != (6,) for a in arrays):
            raise ValueError
        arrays = np.broadcast_arrays(*arrays)
    except (TypeError, ValueError, OverflowError):  # rows numpy cannot read as floats too
        raise InvalidParameter("batched tensors must be (N, 6) component arrays") from None
    return [SymTensor(*np.ascontiguousarray(a.T)) for a in arrays]


def frobenius(A):
    """Frobenius norm sqrt(tr(A A^T)); (N,) row norms for columns or a `columns` batch."""
    if isinstance(A, SymTensor):
        try:
            s = (A.xx * A.xx + A.yy * A.yy + A.zz * A.zz
                 + 2.0 * (A.xy * A.xy + A.xz * A.xz + A.yz * A.yz))
        except OverflowError:  # an int squared past the float range: inf, as for a float
            return math.inf
        return math.sqrt(s) if isinstance(s, float) else np.sqrt(s)
    return frobenius(*columns(A))


def is_finite(A: SymTensor) -> bool:
    """True when every component is finite; an int past the float range is not."""
    try:
        return all(map(math.isfinite, A.components()))
    except OverflowError:
        return False


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


def inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a (3, 3) array via the adjugate; raises Singular."""
    d = det(A)
    if not 1e-14 < abs(d) < math.inf:  # NaN fails too
        raise Singular(f"determinant {d!r} is not a finite number above 1e-14")
    (a, b, c), (e, f, g), (h, i, j) = A.tolist()
    adj = [
        [f * j - g * i, c * i - b * j, b * g - c * f],
        [g * h - e * j, a * j - c * h, c * e - a * g],
        [e * i - f * h, b * h - a * i, a * f - b * e],
    ]
    return np.array(adj) / d


def central_differences(fn, point, h) -> list:
    """Central difference quotients of `fn` in the six stored components of `point`.

    `fn` maps the twelve probes (component lists, six steps of +h then six
    of -h) to twelve values; returns the six quotients (v[j] - v[j+6]) / 2h.
    A list of N points with a list of N steps gives N quotient lists from
    one `fn` call on all 12 N probes, point by point.
    """
    if isinstance(point, SymTensor):
        return central_differences(fn, [point], [h])[0]
    probes = [list(p.components()) for p in point for _ in range(12)]
    starts = range(0, len(probes), 12)
    for k, step in zip(starts, h):
        for j in range(6):
            probes[k + j][j] += step
            probes[k + j + 6][j] -= step
    v = fn(probes)
    return [[(v[k + j] - v[k + j + 6]) / (2.0 * step) for j in range(6)]
            for k, step in zip(starts, h)]


def is_rotation(R: np.ndarray) -> bool:
    # an R^T R that overflows (inf or NaN) fails the norm test, as it should
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(R).all() and np.linalg.norm(R.T @ R - np.eye(3)) <= ROTATION_TOL
                    and np.linalg.det(R) > 0.0)


def eig_sym(A: SymTensor) -> Spectrum:
    """Spectral decomposition by LAPACK's symmetric divide-and-conquer solver.

    Eigenvalues sorted descending (ties keep LAPACK's order); each
    eigenvector's largest-magnitude component is made positive so the
    output is deterministic. Raises InvalidParameter for NaN or inf input
    (an int past the float range too),
    OutOfDomain for an eigenvalue beyond the float range and NoConvergence
    if LAPACK reports a failure.
    """
    if not is_finite(A):
        raise InvalidParameter(f"eig_sym needs finite components, got {A.components()!r}")
    # eigh (LAPACK syevd) sorts ascending, so solving for -A yields the
    # descending order
    try:
        neg_evals, v = np.linalg.eigh(-A.as_matrix())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK syevd failed: {exc}") from None
    evals = tuple((-neg_evals).tolist())
    if not all(map(math.isfinite, evals)):
        raise OutOfDomain(f"eigenvalues {evals!r} overflow for {A.components()!r}")
    # sign convention: each column's largest-magnitude component is nonnegative
    cols = [c if max(c, key=abs) >= 0.0 else [-x for x in c] for c in v.T.tolist()]
    return Spectrum(evals, np.array(cols).T)


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
