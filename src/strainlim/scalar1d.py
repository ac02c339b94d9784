"""One-dimensional worked example: forward relation, exact inversion, two linearizations.

The scalar relation E = delta * a (1 + |a S|^p)^{-1/p} S saturates at |E| =
delta as |S| grows, so inverting it is increasingly ill-conditioned: the
relative condition number of S with respect to E is kappa = 1 + |a S|^p.
The inversion below is conditioning-optimal (the only error left is the
unavoidable kappa * ulp), but no float64 algorithm can beat that floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .analysis import fit_order
from .errors import InvalidParameter, OutOfDomain, Saturation


@dataclass(frozen=True)
class Scalar1DParams:
    a: float
    p: float
    delta: float

    def __post_init__(self):
        # chained comparisons with math.inf: NaN and inf fail them too
        if not 0.0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and at least 1")
        if not sys.float_info.min <= self.delta <= 0.1:  # a subnormal delta is rounding noise
            raise ValueError(f"delta must lie in [{sys.float_info.min!r}, 0.1]")
        if not self.a * self.delta > 0.0:  # sigma = eps / (a delta)
            raise ValueError("a * delta underflows to 0")


def oned_forward(params: Scalar1DParams, Sbar: float) -> float:
    """E = delta * a (1 + |a S|^p)^{-1/p} S; always |E| < delta.

    Raises InvalidParameter unless S and |a S|^p are finite floats.
    """
    u = params.a * Sbar
    try:
        w = abs(u) ** params.p
    except OverflowError:
        w = math.inf
    if not w < math.inf:  # a NaN or inf stress fails too
        raise InvalidParameter(f"stress {Sbar!r}: |a S|^p is not a finite float")
    return params.delta * u / (1.0 + w) ** (1.0 / params.p)


def oned_strain(E: float) -> float:
    """Linearized-strain variable eps = -1 + sqrt(1 + 2E), so E = eps + eps^2/2.

    Raises OutOfDomain for E <= -1/2 and InvalidParameter for NaN or inf.
    Written as 2E/(1 + sqrt(1+2E)) to avoid cancellation at small E.
    """
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


def oned_invert(params: Scalar1DParams, E: float) -> float:
    """S = a^{-1} (1 - |E/delta|^p)^{-1/p} (E/delta); inverse of oned_forward.

    Raises Saturation at a finite |E/delta| >= 1: the limiting strain is not
    attained at any finite stress. A NaN or inf E raises InvalidParameter.
    """
    if not math.isfinite(E):
        raise InvalidParameter(f"strain {E!r} is not finite")
    u = E / params.delta
    if abs(u) >= 1.0:
        raise Saturation(f"|E/delta| = {abs(u)!r} is at or beyond the limit")
    q = one_minus_abs_pow(u, params.p)
    return u * q ** (-1.0 / params.p) / params.a


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


def oned_delta0_study(params: Scalar1DParams, Sbar_list) -> Delta0Study:
    """Per stress: E, eps, delta0 = |eps|, sigma = eps/(a*delta), gap = |sigma - S|."""
    rows = []
    ratio_max = 0.0
    quad_max = 0.0
    for s in Sbar_list:
        e = oned_forward(params, s)
        eps = oned_strain(e)
        delta0 = abs(eps)
        sigma = eps / (params.a * params.delta)
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
            ratio_max = max(ratio_max, gap * params.delta / (abs(s) * delta0))
            quad_max = max(
                quad_max, gap * params.a * params.delta ** 2 / delta0 ** 2
            )
    usable = [r for r in rows if r["delta0"] > 0.0]
    # every stress zero, or every gap zero: the identity held exactly, nothing to fit
    slope = fit_order([r["delta0"] for r in usable], [r["gap"] for r in usable]) if usable else None
    return Delta0Study(tuple(rows), slope, ratio_max, quad_max)
