"""Symmetric 3x3 tensor algebra with spectral operations.

Symmetric tensors are stored as six plain floats so the hot operations
(norm, trace, determinant) stay allocation-free; full 3x3 values only
appear on the spectral paths. Components may also be numpy columns, a
batch (`is_batch`): `columns` alone turns (N, 6) component arrays into one, and
`rows` turns one back into plain-float tensors. A general 3x3 tensor (a
deformation gradient, a rotation, an eigenframe) is a float (3, 3) numpy
array, and a batch of them an (N, 3, 3) stack. Every function here takes
a batch where it takes a tensor, and one tensor is a batch of one: each row
of a batch gives, bit for bit, what a call on that row alone gives (stacked
`eigh` and `matmul` are per-matrix calls, each fed the same layouts). A
batch runs a single call's checks in the same order, each over every row,
and raises the first failing check's error for its first failing row. The
eigensolver is `np.linalg.eigh` (LAPACK's symmetric solver `syevd`), which,
unlike the closed-form cubic, does not lose accuracy near repeated
eigenvalues. The module needs numpy only. `SymTensor` is a frozen, slotted
dataclass: a hashable, picklable value with no instance `__dict__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameter, NoConvergence, NotPositiveDefinite, OutOfDomain, Singular,
                     real)

# eigenvalues at or below this are treated as nonpositive
EIG_POSITIVITY_TOL = 1e-14
# largest Frobenius norm of R^T R - I that is_rotation accepts
ROTATION_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class SymTensor:
    """Symmetric 3x3 tensor; components (xx, yy, zz, xy, xz, yz)."""

    xx: float = 0.0
    yy: float = 0.0
    zz: float = 0.0
    xy: float = 0.0
    xz: float = 0.0
    yz: float = 0.0

    def __init__(self, xx=0.0, yy=0.0, zz=0.0, xy=0.0, xz=0.0, yz=0.0):
        # the slots' own setters: half the cost of a frozen dataclass's object.__setattr__
        _set_xx(self, xx)
        _set_yy(self, yy)
        _set_zz(self, zz)
        _set_xy(self, xy)
        _set_xz(self, xz)
        _set_yz(self, yz)

    @staticmethod
    def identity() -> "SymTensor":
        return SymTensor(1.0, 1.0, 1.0)

    @staticmethod
    def from_matrix(m) -> "SymTensor":
        """Symmetric part of a 3x3 array or nested list, as six plain floats, or
        of an (N, 3, 3) stack, as (N,) columns."""
        a, b, c, d, e, f, g, h, i = entries(m)
        # halving first cannot overflow, and halving a normal float is exact
        return SymTensor(a, e, i, 0.5 * b + 0.5 * d, 0.5 * c + 0.5 * g, 0.5 * f + 0.5 * h)

    def as_matrix(self) -> np.ndarray:
        """The (3, 3) array, or the C-ordered (N, 3, 3) stack of a batch."""
        # both triangles from the same float, so the result is symmetric bit-exactly
        c = _stacked(self)
        m = np.ascontiguousarray(c[[0, 3, 4, 3, 1, 5, 4, 5, 2]].T)
        return m.reshape(c.shape[1:] + (3, 3))

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


_set_xx, _set_yy, _set_zz, _set_xy, _set_xz, _set_yz = (
    getattr(SymTensor, name).__set__ for name in ("xx", "yy", "zz", "xy", "xz", "yz"))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and the orthogonal eigenvector frame, a (3, 3)
    array whose columns are the eigenvectors; for a batch, an (N, 3) array and
    an (N, 3, 3) stack."""

    eigenvalues: tuple
    frame: np.ndarray


def _stacked(A: SymTensor) -> np.ndarray:
    """The components as one float array, (6,) or (6, N); InvalidParameter for a
    component that is neither a number (`errors.real`) nor a real float or int column."""
    c = [x if isinstance(x, np.ndarray) and x.dtype.kind in "fiu" else real(x, "each component")
         for x in A.components()]
    try:
        return np.array(c, dtype=float)
    except ValueError:  # floats among numpy columns
        return np.array(np.broadcast_arrays(*c), dtype=float)


def entries(m) -> list:
    """The nine entries of a (3, 3) array in row-major order, as plain floats,
    or of an (N, 3, 3) stack, as (N,) columns."""
    m = np.asarray(m, dtype=float)
    return m.ravel().tolist() if m.ndim == 2 else list(m.reshape(-1, 9).T)


def check_rows(ok, error, message) -> None:
    """Raise error(message(k)) for the first row k where `ok`, a bool or one
    flag per row, fails."""
    if ok is not True and not np.logical_and.reduce(ok, axis=None):
        raise error(message(int(np.argmin(ok))))


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


def is_batch(A: SymTensor) -> bool:
    """True when a component of A is a numpy column: the one test for a batch SymTensor."""
    return any(map(isinstance, A.components(), (np.ndarray,) * 6))


def rows(A: SymTensor) -> list:
    """The rows of a batch as SymTensors of plain floats; [A] for one tensor."""
    if not is_batch(A):
        return [A]
    return [SymTensor(*r) for r in _stacked(A).T.tolist()]


def frobenius(A):
    """Frobenius norm sqrt(tr(A A^T)); (N,) row norms for columns or a `columns` batch.
    InvalidParameter unless the squares sum to a number (`errors.real`) or a real array."""
    if isinstance(A, SymTensor):
        try:
            s = (A.xx * A.xx + A.yy * A.yy + A.zz * A.zz
                 + 2.0 * (A.xy * A.xy + A.xz * A.xz + A.yz * A.yz))
        except OverflowError:  # an int squared past the float range: inf, as for a float
            return math.inf
        except TypeError:  # a list, string or None component
            s = None
        if isinstance(s, float):
            return math.sqrt(s)
        if isinstance(s, np.ndarray) and s.dtype.kind in "fiu":
            return np.sqrt(s)
        return math.sqrt(real(s, f"the squared norm of {A!r}"))
    return frobenius(*columns(A))


def is_finite(A: SymTensor) -> bool:
    """True when every component is finite; an int past the float range is not.
    A batch gives one flag per row."""
    try:
        return all(map(math.isfinite, A.components()))
    except OverflowError:
        return False
    except TypeError:  # numpy columns
        return np.isfinite(_stacked(A)).all(axis=0)


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
    """Determinant by cofactor expansion; A is a SymTensor or a (3, 3) array,
    or a batch of either ((N,) determinants)."""
    if isinstance(A, SymTensor):
        return (
            A.xx * (A.yy * A.zz - A.yz * A.yz)
            - A.xy * (A.xy * A.zz - A.yz * A.xz)
            + A.xz * (A.xy * A.yz - A.yy * A.xz)
        )
    a, b, c, d, e, f, g, h, i = entries(A)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf or NaN
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a (3, 3) array, or of each matrix of an (N, 3, 3) stack, via
    the adjugate; raises Singular."""
    d = det(A)
    check_rows(np.logical_and(1e-14 < abs(d), abs(d) < math.inf), Singular, lambda k: (  # NaN fails
        f"determinant {float(np.ravel(d)[k])!r} is not a finite number above 1e-14"))
    a, b, c, e, f, g, h, i, j = entries(A)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf or NaN
        adj = np.stack([f * j - g * i, c * i - b * j, b * g - c * f,
                        g * h - e * j, a * j - c * h, c * e - a * g,
                        e * i - f * h, b * h - a * i, a * f - b * e], axis=-1)
        return adj.reshape(np.shape(d) + (3, 3)) / np.reshape(d, np.shape(d) + (1, 1))


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


def is_rotation(R: np.ndarray):
    """Finite, R^T R = I within ROTATION_TOL and det R > 0; one flag per
    matrix of an (N, 3, 3) stack."""
    # an R^T R that overflows (inf or NaN) fails the norm test, as it should, and
    # np.linalg.det of a bad matrix may divide by zero: every row is tested at once
    with np.errstate(all="ignore"):
        gap = np.linalg.norm(np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1))
        ok = np.isfinite(R).all(axis=(-2, -1)) & (gap <= ROTATION_TOL) & (np.linalg.det(R) > 0.0)
    return bool(ok) if ok.ndim == 0 else ok


def eig_sym(A: SymTensor) -> Spectrum:
    """Spectral decomposition by LAPACK's symmetric divide-and-conquer solver.

    Eigenvalues sorted descending (ties keep LAPACK's order); each
    eigenvector's largest-magnitude component is made positive so the
    output is deterministic. Raises InvalidParameter for NaN or inf input
    (an int past the float range too),
    OutOfDomain for an eigenvalue beyond the float range and NoConvergence
    if LAPACK reports a failure.
    """
    check_rows(is_finite(A), InvalidParameter,
               lambda k: f"eig_sym needs finite components, got {rows(A)[k].components()!r}")
    # eigh (LAPACK syevd) sorts ascending, so solving for -A yields the
    # descending order
    try:
        neg_evals, v = np.linalg.eigh(-A.as_matrix())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK syevd failed: {exc}") from None
    evals = -neg_evals
    check_rows(np.isfinite(evals).all(axis=-1), OutOfDomain, lambda k: (
        f"eigenvalues {tuple(evals.reshape(-1, 3)[k].tolist())!r} overflow for "
        f"{rows(A)[k].components()!r}"))
    # sign convention: each column's largest-magnitude component is nonnegative;
    # cols holds the columns as C-ordered rows, so the frame is F-ordered
    cols = np.swapaxes(v, -1, -2)
    lead = np.take_along_axis(cols, np.abs(cols).argmax(axis=-1)[..., None], axis=-1)
    cols = np.where(lead >= 0.0, cols, -cols).copy(order="C")
    return Spectrum(tuple(evals.tolist()) if evals.ndim == 1 else evals, np.swapaxes(cols, -1, -2))


def _spectral_map(A: SymTensor, fn, require_pd: bool) -> SymTensor:
    spec = eig_sym(A)
    lam = np.asarray(spec.eigenvalues)
    if require_pd:
        lam_min = lam.min(axis=-1)
        check_rows(lam_min > EIG_POSITIVITY_TOL, NotPositiveDefinite, lambda k: (
            f"eigenvalue {float(np.ravel(lam_min)[k])!r} at or below {EIG_POSITIVITY_TOL}"))
    f = []  # the scalar function per eigenvalue: numpy's vector exp and log round differently
    for x in lam.ravel().tolist():
        try:
            f.append(fn(x))
        except OverflowError:  # exp: in descending rows the first to overflow is its row's top
            raise OutOfDomain(f"eigenvalue {x!r} overflows {fn.__name__}") from None
    f = np.reshape(f, lam.shape)
    # (v * f(lam)) @ v^T with the layouts of a single call: an F-ordered left factor
    # times a C-ordered right one (other layouts move the last bits in OpenBLAS)
    cols = np.ascontiguousarray(np.swapaxes(spec.frame, -1, -2))
    return SymTensor.from_matrix(np.swapaxes(cols * f[..., :, None], -1, -2) @ cols)


def spd_sqrt(C: SymTensor) -> SymTensor:
    """Symmetric positive definite square root."""
    return _spectral_map(C, math.sqrt, require_pd=True)


def sym_log(B: SymTensor) -> SymTensor:
    """Matrix logarithm of a symmetric positive definite tensor."""
    return _spectral_map(B, math.log, require_pd=True)


def sym_exp(H: SymTensor) -> SymTensor:
    """Matrix exponential of a symmetric tensor; OutOfDomain if exp overflows."""
    return _spectral_map(H, math.exp, require_pd=False)
