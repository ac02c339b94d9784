"""One-dimensional worked example: forward relation, exact inversion, two linearizations.

The scalar relation E = delta * a (1 + |a S|^p)^{-1/p} S saturates at |E| =
delta as |S| grows, so inverting it is increasingly ill-conditioned: the
relative condition number of S with respect to E is kappa = 1 + |a S|^p.
The inversion below is conditioning-optimal (the only error left is the
unavoidable kappa * ulp), but no float64 algorithm can beat that floor.
The relation is the power_law family's scalar version: each function takes
that `FamilySpec` and a delta, raises InvalidParameter for any other kind
and leaves the delta to `check_delta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .analysis import fit_order
from .errors import InvalidParameter, OutOfDomain, Saturation, real
from .families import FamilySpec, check_delta


def _check_scalar(spec: FamilySpec, delta: float) -> None:
    if spec.kind != "power_law":
        raise InvalidParameter("the scalar relation requires the power_law family")
    check_delta(spec, delta)


def oned_forward(spec: FamilySpec, delta: float, Sbar: float) -> float:
    """E = delta * a (1 + |a S|^p)^{-1/p} S; always |E| < delta.

    Raises InvalidParameter unless S (`errors.real`) and |a S|^p are finite.
    The stress is not held to the family's ball: any finite |a S|^p is allowed.
    """
    _check_scalar(spec, delta)
    Sbar = real(Sbar, "stress")
    u = spec.a * Sbar
    try:
        w = abs(u) ** spec.p
    except OverflowError:
        w = math.inf
    if not w < math.inf:  # a NaN or inf stress fails too
        raise InvalidParameter(f"stress {Sbar!r}: |a S|^p is not a finite float")
    return delta * u / (1.0 + w) ** (1.0 / spec.p)


def oned_strain(E: float) -> float:
    """Linearized-strain variable eps = -1 + sqrt(1 + 2E), so E = eps + eps^2/2.

    Raises OutOfDomain for E <= -1/2 and InvalidParameter unless E is finite
    (`errors.real`). Written as 2E/(1 + sqrt(1+2E)) against cancellation.
    """
    E = real(E, "strain")
    if not math.isfinite(E):
        raise InvalidParameter(f"strain {E!r} is not finite")
    if E <= -0.5:
        raise OutOfDomain(f"E = {E!r} is at or below -1/2")
    return 2.0 * E / (1.0 + math.sqrt(1.0 + 2.0 * E))


def one_minus_abs_pow(u: float, p: float) -> float:
    """1 - |u|^p with full relative precision for |u| near 1 (|u| <= 1).

    Below 1/2 there is nothing to cancel and the direct form is exact
    enough. For |u| in [1/2, 1] the difference 1 - |u| is exact (Sterbenz)
    and 1 - |u|^p = -expm1(p * log1p(-(1 - |u|))) keeps the precision.
    """
    au = abs(u)
    if au <= 0.5:
        return 1.0 - au ** p
    w = 1.0 - au
    return -math.expm1(p * math.log1p(-w))


def oned_invert(spec: FamilySpec, delta: float, E: float) -> float:
    """S = a^{-1} (1 - |E/delta|^p)^{-1/p} (E/delta); inverse of oned_forward.

    Raises Saturation at a finite |E/delta| >= 1: the limiting strain is not
    attained at any finite stress. InvalidParameter unless E is finite (`errors.real`).
    """
    _check_scalar(spec, delta)
    E = real(E, "strain")
    if not math.isfinite(E):
        raise InvalidParameter(f"strain {E!r} is not finite")
    u = E / delta
    if abs(u) >= 1.0:
        raise Saturation(f"|E/delta| = {abs(u)!r} is at or beyond the limit")
    q = one_minus_abs_pow(u, spec.p)
    return u * q ** (-1.0 / spec.p) / spec.a


@dataclass(frozen=True)
class Delta0Study:
    """Rows of the small-displacement comparison plus its summary diagnostics.

    `slope` is the fitted order of gap = |sigma - S| against delta0 = |eps|
    (None when every gap is exactly zero); `ratio_max` bounds gap * delta /
    (|S| delta0); `quad_constant_max` bounds gap * a * delta^2 / delta0^2.
    """

    rows: tuple
    slope: Optional[float]
    ratio_max: float
    quad_constant_max: float


def oned_delta0_study(spec: FamilySpec, delta: float, Sbar_list) -> Delta0Study:
    """Per stress: E, eps, delta0 = |eps|, sigma = eps/(a*delta), gap = |sigma - S|.

    Raises InvalidParameter when a * delta underflows to 0.
    """
    _check_scalar(spec, delta)
    a = spec.a
    if not a * delta > 0.0:
        raise InvalidParameter(f"a * delta underflows to 0 for a = {a!r}, delta = {delta!r}")
    rows = []
    ratio_max = 0.0
    quad_max = 0.0
    for s in Sbar_list:
        e = oned_forward(spec, delta, s)
        eps = oned_strain(e)
        delta0 = abs(eps)
        sigma = eps / (a * delta)
        gap = abs(sigma - s)
        rows.append(
            {
                "Sbar": s,
                "E": e,
                "eps": eps,
                "delta0": delta0,
                "sigma": sigma,
                "gap": gap,
            }
        )
        # rows whose |S| delta0 or delta0^2 underflows to 0 have no ratio
        if abs(s) * delta0 > 0.0 and delta0 ** 2 > 0.0:
            ratio_max = max(ratio_max, gap * delta / (abs(s) * delta0))
            quad_max = max(quad_max, gap * a * delta ** 2 / delta0 ** 2)
    usable = [r for r in rows if r["delta0"] > 0.0]
    # every stress zero, or every gap zero: the identity held exactly, nothing to fit
    slope = fit_order([r["delta0"] for r in usable], [r["gap"] for r in usable]) if usable else None
    return Delta0Study(tuple(rows), slope, ratio_max, quad_max)
