"""Complementary energy, its Legendre transform, and the Green-elastic stress map.

The leading profile of the power-law family is the gradient of a radial
complementary energy W*(S) = G(|S|) with G the antiderivative of
a t (1 + a^p t^p)^{-1/p}; W*(0) = 0 fixes the free additive constant. W is
the convex conjugate of W*, evaluated at the closed-form maximizer (the
tensor analogue of the one-dimensional inversion). The stress map of the
associated Green elastic solid is a finite-difference gradient of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import OutOfDomain, Saturation
from .families import FamilySpec, family_leading
from .scalar1d import one_minus_abs_pow
from .symtensor import SymTensor, frobenius, inner

_QUAD_TOL = 1e-12
_GRAD_STEP = 1e-5
# wider than the FD step so gradient probes stay strictly inside the limit
_SATURATION_GUARD = 1e-4


@dataclass(frozen=True)
class EnergyProfile:
    """A family whose leading profile is a gradient field.

    power_law always qualifies; scaled_base qualifies when its base is a
    gradient in the stress argument (the built-in "power_law" base is).
    """

    family: FamilySpec
    quadrature_points: int = 64

    def __post_init__(self):
        if self.family.kind not in ("power_law", "scaled_base"):
            raise ValueError("energy profiles require power_law or scaled_base")
        if self.quadrature_points < 64:
            raise ValueError("quadrature_points must be at least 64")


def _check_stress_domain(profile: EnergyProfile, Sbar: SymTensor):
    if frobenius(Sbar) > profile.family.c:
        raise OutOfDomain(f"|Sbar| = {frobenius(Sbar)!r} exceeds {profile.family.c!r}")


def _radial_closed_form(a: float, s: float) -> float:
    # int_0^s a t (1 + a^2 t^2)^{-1/2} dt = ((1 + a^2 s^2)^{1/2} - 1)/a,
    # written to avoid the cancellation at small s
    return a * s * s / (1.0 + math.sqrt(1.0 + (a * s) ** 2))


def complementary_energy_quadrature(profile: EnergyProfile, Sbar: SymTensor) -> float:
    """Adaptive-quadrature path for W*(Sbar); cross-checks the closed form."""
    _check_stress_domain(profile, Sbar)
    fam = profile.family
    if fam.kind == "power_law":
        s = frobenius(Sbar)
        if s == 0.0:
            return 0.0
        integrand = lambda t: fam.a * t * (1.0 + (fam.a * t) ** fam.p) ** (-1.0 / fam.p)
        value, _ = quad(integrand, 0.0, s, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                        limit=200)
        return value
    # line integral along the ray t -> t*Sbar; exact for any gradient base
    zero = SymTensor()
    integrand = lambda t: inner(family_leading(fam, zero, Sbar * t), Sbar)
    value, _ = quad(integrand, 0.0, 1.0, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return value


def complementary_energy(profile: EnergyProfile, Sbar: SymTensor) -> float:
    """W*(Sbar), normalized so W*(0) = 0; convex on the stress ball."""
    fam = profile.family
    if fam.kind == "power_law" and fam.p == 2.0:
        _check_stress_domain(profile, Sbar)
        return _radial_closed_form(fam.a, frobenius(Sbar))
    return complementary_energy_quadrature(profile, Sbar)


def conjugate_stress(profile: EnergyProfile, Etilde: SymTensor) -> SymTensor:
    """Closed-form maximizer of <Etilde, S> - W*(S): inverts the leading profile.

    a S = (1 - |Etilde|^p)^{-1/p} Etilde. Raises Saturation at |Etilde| >= 1.
    """
    fam = profile.family
    if fam.kind != "power_law":
        raise ValueError("closed-form conjugate requires the power_law profile")
    e = frobenius(Etilde)
    if e >= 1.0:
        raise Saturation(f"|Etilde| = {e!r} is at or beyond the strain limit")
    q = one_minus_abs_pow(e, fam.p)
    return Etilde * (q ** (-1.0 / fam.p) / fam.a)


def legendre_transform(profile: EnergyProfile, Etilde: SymTensor) -> float:
    """W(Etilde) = sup_S [<Etilde, S> - W*(S)], evaluated at the maximizer."""
    star = conjugate_stress(profile, Etilde)
    fam = profile.family
    if fam.kind == "power_law" and fam.p == 2.0:
        # closed form a^{-1}(1 - sqrt(1 - e^2)); keeps W exactly conjugate
        e = frobenius(Etilde)
        return e * e / (fam.a * (1.0 + math.sqrt(one_minus_abs_pow(e, 2.0))))
    return inner(Etilde, star) - _complementary_unbounded(profile, star)


def _complementary_unbounded(profile: EnergyProfile, Sbar: SymTensor) -> float:
    # the conjugate stress may leave the configured stress ball; the radial
    # integral itself is defined for all stresses
    fam = profile.family
    s = frobenius(Sbar)
    if fam.p == 2.0:
        return _radial_closed_form(fam.a, s)
    if s == 0.0:
        return 0.0
    integrand = lambda t: fam.a * t * (1.0 + (fam.a * t) ** fam.p) ** (-1.0 / fam.p)
    value, _ = quad(integrand, 0.0, s, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return value


def complementary_gradient(profile: EnergyProfile, Sbar: SymTensor) -> SymTensor:
    """Central finite-difference gradient of W*; should reproduce the leading profile.

    Same six-component convention as green_stress: off-diagonal quotients
    are halved. Probe points must stay inside the stress ball, so |Sbar|
    needs a little headroom below c.
    """
    h = _GRAD_STEP * max(1.0, frobenius(Sbar))
    return _central_gradient(lambda S: complementary_energy(profile, S), Sbar, h)


def green_stress(profile: EnergyProfile, delta: float, eps: SymTensor) -> SymTensor:
    """Stress of the linearized Green elastic solid: the gradient of W at eps/delta.

    Central finite differences on W in the six stored components; the
    off-diagonal quotients are halved because those components carry double
    weight in the matrix inner product. Raises Saturation when |eps/delta|
    reaches 1 - 1e-4 (probe points must stay strictly inside the limit).
    """
    et = eps * (1.0 / delta)
    e = frobenius(et)
    if e >= 1.0 - _SATURATION_GUARD:
        raise Saturation(f"|eps/delta| = {e!r} too close to the strain limit")
    h = _GRAD_STEP * max(1.0, e)
    return _central_gradient(lambda E: legendre_transform(profile, E), et, h)


def _central_gradient(fn, point: SymTensor, h: float) -> SymTensor:
    # central differences in the six stored components, off-diagonal
    # quotients halved (those components count twice in the inner product)
    comps = list(point.components())
    grad = []
    for j in range(6):
        up, dn = comps.copy(), comps.copy()
        up[j] += h
        dn[j] -= h
        quotient = (fn(SymTensor(*up)) - fn(SymTensor(*dn))) / (2.0 * h)
        grad.append(quotient if j < 3 else 0.5 * quotient)
    return SymTensor(*grad)
