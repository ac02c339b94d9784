"""Complementary energy, its Legendre transform, and the Green-elastic stress map.

The leading profile of the power-law family is the gradient of a radial
complementary energy W*(S) = G(|S|) with G the antiderivative of
a t (1 + a^p t^p)^{-1/p} (a `quad` integral for p != 2); W*(0) = 0 fixes the
free additive constant. A scaled_base W* is the line integral of the leading
profile along t S, t in [0, 1]: one `cubature` call integrates it for a whole
(N, 6) array of stresses, e.g. the twelve probes of a gradient. W is
the convex conjugate of W*, evaluated at the closed-form maximizer (the
tensor analogue of the one-dimensional inversion). The stress map of the
associated Green elastic solid is a finite-difference gradient of W.
`quad` and `cubature` import `scipy.integrate` on their first call, so only
studies that integrate (p != 2 or scaled_base) load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfDomain, Saturation
from .families import FamilySpec, family_leading
from .scalar1d import one_minus_abs_pow
from .symtensor import SymTensor, central_differences, frobenius, inner

_QUAD_TOL = 1e-12
_GRAD_STEP = 1e-5
# wider than the FD step so gradient probes stay strictly inside the limit
_SATURATION_GUARD = 1e-4


def quad(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.quad(*args, **kwargs)


def cubature(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.cubature(*args, **kwargs)


@dataclass(frozen=True)
class EnergyProfile:
    """A family whose leading profile is a gradient field.

    power_law always qualifies; scaled_base qualifies when its base is a
    gradient in the stress argument (the built-in "power_law" base is).
    """

    family: FamilySpec

    def __post_init__(self):
        if self.family.kind not in ("power_law", "scaled_base"):
            raise ValueError("energy profiles require power_law or scaled_base")


def _checked_norm(profile: EnergyProfile, Sbar: SymTensor) -> float:
    s = frobenius(Sbar)
    if not s <= profile.family.c:  # NaN and inf fail too
        raise OutOfDomain(f"|Sbar| = {s!r} exceeds {profile.family.c!r}")
    return s


def _radial_closed_form(a: float, s: float) -> float:
    # int_0^s a t (1 + a^2 t^2)^{-1/2} dt = ((1 + a^2 s^2)^{1/2} - 1)/a,
    # written to avoid the cancellation at small s
    return a * s * s / (1.0 + math.sqrt(1.0 + (a * s) ** 2))


def complementary_energy_quadrature(profile: EnergyProfile, Sbar: SymTensor) -> float:
    """Adaptive-quadrature path for W*(Sbar); cross-checks the closed form."""
    fam = profile.family
    if fam.kind == "scaled_base":
        return float(_line_integrals(profile, np.array([Sbar.components()]))[0])
    return _radial_quad(fam.a, fam.p, _checked_norm(profile, Sbar))


def _radial_quad(a: float, p: float, s: float) -> float:
    # int_0^s a t (1 + (a t)^p)^{-1/p} dt
    if s == 0.0:
        return 0.0
    expo = -1.0 / p
    integrand = lambda t: a * t * (1.0 + (a * t) ** p) ** expo
    value, _ = quad(integrand, 0.0, s, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return value


def _line_integrals(profile: EnergyProfile, rows: np.ndarray) -> np.ndarray:
    # W*(S) = int_0^1 <f_1(0, t S), S> dt for each row S, exact for any
    # gradient base; one family_leading call takes every ray at every node
    fam = profile.family
    norms = frobenius(rows)
    if not np.all(norms <= fam.c):  # NaN and inf fail too
        raise OutOfDomain(f"|Sbar| = {float(np.max(norms))!r} exceeds {fam.c!r}")
    weighted = rows * [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def integrand(t):  # (m, 1) nodes -> (m, N) values
        lead = family_leading(fam, SymTensor(), (t[:, :, None] * rows).reshape(-1, 6))
        return (lead.reshape(len(t), *rows.shape) * weighted).sum(axis=-1)

    res = cubature(integrand, [0.0], [1.0], rule="gk21", rtol=_QUAD_TOL, atol=_QUAD_TOL)
    if res.status != "converged":
        raise NoConvergence(f"W* line integral {res.status}", float(np.max(res.error)))
    return res.estimate


def complementary_energy(profile: EnergyProfile, Sbar: SymTensor) -> float:
    """W*(Sbar), normalized so W*(0) = 0; convex on the stress ball."""
    fam = profile.family
    if fam.kind == "power_law" and fam.p == 2.0:
        return _radial_closed_form(fam.a, _checked_norm(profile, Sbar))
    return complementary_energy_quadrature(profile, Sbar)


def conjugate_stress(profile: EnergyProfile, Etilde: SymTensor) -> SymTensor:
    """Closed-form maximizer of <Etilde, S> - W*(S): inverts the leading profile.

    a S = (1 - |Etilde|^p)^{-1/p} Etilde. Raises Saturation at |Etilde| >= 1
    and OutOfDomain when |Etilde| is NaN or inf.
    """
    fam = profile.family
    if fam.kind != "power_law":
        raise ValueError("closed-form conjugate requires the power_law profile")
    e = frobenius(Etilde)
    if not e < 1.0:  # a NaN or inf strain is out of the domain, not saturated
        raise (Saturation if math.isfinite(e) else OutOfDomain)(f"|Etilde| = {e!r} is not below 1")
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
    # the conjugate stress may leave the configured stress ball; the radial
    # integral itself is defined for all stresses
    return inner(Etilde, star) - _radial_quad(fam.a, fam.p, frobenius(star))


def complementary_gradient(profile: EnergyProfile, Sbar: SymTensor) -> SymTensor:
    """Central finite-difference gradient of W*; should reproduce the leading profile.

    Same six-component convention as green_stress: off-diagonal quotients
    are halved. Probe points must stay inside the stress ball, so |Sbar|
    needs a little headroom below c.
    """
    h = _GRAD_STEP * max(1.0, _checked_norm(profile, Sbar))
    if profile.family.kind == "scaled_base":
        return _central_gradient(lambda P: _line_integrals(profile, np.array(P)).tolist(), Sbar, h)
    return _central_gradient(
        lambda P: [complementary_energy(profile, SymTensor(*S)) for S in P], Sbar, h)


def green_stress(profile: EnergyProfile, delta: float, eps: SymTensor) -> SymTensor:
    """Stress of the linearized Green elastic solid: the gradient of W at eps/delta.

    Central finite differences on W in the six stored components; the
    off-diagonal quotients are halved because those components carry double
    weight in the matrix inner product. Raises Saturation when |eps/delta|
    reaches 1 - 1e-4 (probe points must stay strictly inside the limit) and
    OutOfDomain when it is NaN or inf.
    """
    et = eps * (1.0 / delta)
    e = frobenius(et)
    if not e < 1.0 - _SATURATION_GUARD:  # as in conjugate_stress
        raise (Saturation if math.isfinite(e) else OutOfDomain)(
            f"|eps/delta| = {e!r} is not below the strain limit minus 1e-4")
    h = _GRAD_STEP * max(1.0, e)
    return _central_gradient(
        lambda P: [legendre_transform(profile, SymTensor(*E)) for E in P], et, h)


def _central_gradient(fn, point: SymTensor, h: float) -> SymTensor:
    # off-diagonal quotients halved: those components count twice in the inner product
    grad = central_differences(fn, point, h)
    return SymTensor(*grad[:3], *[0.5 * q for q in grad[3:]])
