"""Complementary energy, strain energy, and the Green-elastic stress map.

The leading profile of the power-law family is the gradient of a radial
complementary energy W*(S) = G(|S|) with G the antiderivative of
a t (1 + a^p t^p)^{-1/p} (a Gauss hypergeometric closed form for p != 2,
`quad`); W*(0) = 0 fixes the free additive constant. A scaled_base leading
profile is the power-law profile of its `a` and `p`, so its W* is the same
G(|S|). Its conjugate W(E) = w(|E|), w the antiderivative of t (1 - t^p)^{-1/p}/a,
has the mirror closed form, so a Fenchel-Young check compares two independent
ones. The Green elastic solid's stress map is a finite-difference gradient
of W. Every map takes the family's `FamilySpec` and one SymTensor, as
`check_single` says: the stress-side maps accept the `ENERGY_KINDS`, the
strain-side ones power_law alone, and any other kind raises
InvalidParameter. Stresses must lie in the family's ball B(0, c)
(`check_ball`) and `green_stress`'s one delta must pass `check_delta`.
`_hyp`, the 2F1 of both forms, imports `scipy.special.hyp2f1` on its first
call and keeps it, so only studies with p != 2 load scipy.
"""

from __future__ import annotations

import math

from .errors import InvalidParameter, OutOfDomain, Saturation
from .families import FamilySpec, check_ball, check_delta, check_single
from .scalar1d import one_minus_abs_pow
from .symtensor import SymTensor, central_differences, frobenius, is_finite

# kinds whose leading profile is a gradient field: power_law, and scaled_base,
# whose built-in base is the power-law profile
ENERGY_KINDS = ("power_law", "scaled_base")
_GRAD_STEP = 1e-5
# wider than the FD step so gradient probes stay strictly inside the limit
_SATURATION_GUARD = 1e-4
# scipy.special.hyp2f1, imported by the first `_hyp` call
_hyp2f1 = None


def _hyp(p: float, z: float) -> float:
    # 2F1(1/p, 2/p; 1 + 2/p; z) as a float, not float64, so CSV cells hold plain numbers
    global _hyp2f1
    if _hyp2f1 is None:
        from scipy.special import hyp2f1 as _hyp2f1
    return float(_hyp2f1(1.0 / p, 2.0 / p, 1.0 + 2.0 / p, z))


def quad(a: float, p: float, s: float) -> float:
    """G(s) = int_0^s a t (1 + (a t)^p)^{-1/p} dt = (a s^2/2) 2F1(1/p, 2/p; 1 + 2/p; -(a s)^p)."""
    return 0.5 * a * s * s * _hyp(p, -(a * s) ** p)


def _radial(a: float, p: float, s: float) -> float:
    if p == 2.0:
        # ((1 + a^2 s^2)^{1/2} - 1)/a, written to avoid the cancellation at small s
        return a * s * s / (1.0 + math.sqrt(1.0 + (a * s) ** 2))
    return 0.0 if s == 0.0 else quad(a, p, s)


def _check(spec: FamilySpec, kinds: tuple, name: str, A, delta=0.0) -> None:
    # the public maps check once; their finite-difference probes skip it
    if spec.kind not in kinds:
        raise InvalidParameter(f"this map takes the kinds {list(kinds)}, got {spec.kind}")
    check_single(name, A, delta)


def complementary_energy(spec: FamilySpec, Sbar: SymTensor) -> float:
    """W*(Sbar) = G(|Sbar|), normalized so W*(0) = 0; convex on the stress ball.

    Raises InvalidParameter for a kind outside ENERGY_KINDS.
    """
    _check(spec, ENERGY_KINDS, "Sbar", Sbar)
    return _radial(spec.a, spec.p, check_ball("Sbar", Sbar, spec.c))


def conjugate_stress(spec: FamilySpec, Etilde: SymTensor) -> SymTensor:
    """Closed-form maximizer of <Etilde, S> - W*(S): inverts the leading profile.

    a S = (1 - |Etilde|^p)^{-1/p} Etilde. Raises InvalidParameter unless the
    kind is power_law, Saturation at |Etilde| >= 1 and OutOfDomain when
    |Etilde| is NaN or inf.
    """
    _check(spec, ("power_law",), "Etilde", Etilde)
    q = one_minus_abs_pow(_below_one(Etilde), spec.p)
    return Etilde * (q ** (-1.0 / spec.p) / spec.a)


def _below_one(Etilde: SymTensor, limit=1.0, name="Etilde") -> float:
    e = frobenius(Etilde)
    if not e < limit:  # a NaN or inf strain is out of the domain, not saturated
        raise (Saturation if math.isfinite(e) else OutOfDomain)(
            f"|{name}| = {e!r} is not below {limit!r}")
    return e


def legendre_transform(spec: FamilySpec, Etilde: SymTensor) -> float:
    """W(E) = sup_S [<E, S> - W*(S)] = w(|E|) = (|E|^2/2a) 2F1(1/p, 2/p; 1 + 2/p; |E|^p)."""
    _check(spec, ("power_law",), "Etilde", Etilde)
    return _legendre(spec, Etilde)


def _legendre(spec: FamilySpec, Etilde: SymTensor) -> float:
    e = _below_one(Etilde)
    if spec.p == 2.0:
        # (1 - sqrt(1 - e^2))/a, written to avoid the cancellation at small e
        return e * e / (spec.a * (1.0 + math.sqrt(one_minus_abs_pow(e, 2.0))))
    return 0.0 if e == 0.0 else 0.5 * e * e / spec.a * _hyp(spec.p, e ** spec.p)


def complementary_gradient(spec: FamilySpec, Sbar: SymTensor) -> SymTensor:
    """Central finite-difference gradient of W*; should reproduce the leading profile.

    Same six-component convention as green_stress: off-diagonal quotients
    are halved. The step is 1e-5 max(min(1, c), |Sbar|), so probes stay in a
    stress ball of any radius c when |Sbar| leaves a little headroom below c.
    """
    _check(spec, ENERGY_KINDS, "Sbar", Sbar)
    floor = min(1.0, spec.c)
    if not _GRAD_STEP * floor > 0.0:
        raise InvalidParameter(f"the gradient step underflows for c = {spec.c!r}")
    h = _GRAD_STEP * max(floor, check_ball("Sbar", Sbar, spec.c))
    return _central_gradient(lambda P: [
        _radial(spec.a, spec.p, check_ball("Sbar", SymTensor(*S), spec.c)) for S in P], Sbar, h)


def green_stress(spec: FamilySpec, delta: float, eps: SymTensor) -> SymTensor:
    """Stress of the linearized Green elastic solid: the gradient of W at eps/delta.

    Central finite differences on W in the six stored components; the
    off-diagonal quotients are halved because those components carry double
    weight in the matrix inner product. Raises InvalidParameter unless the
    kind is power_law, InadmissibleDelta for a delta `check_delta` refuses,
    Saturation when |eps/delta| reaches 1 - 1e-4 (probe points must stay
    strictly inside the limit) and OutOfDomain when it is NaN or inf (an int
    past the float range too).
    """
    _check(spec, ("power_law",), "eps", eps, delta)
    check_delta(spec, delta)
    if not is_finite(eps):  # before eps/delta meets an int past the float range
        raise OutOfDomain(f"eps needs finite components, got {eps.components()!r}")
    et = eps * (1.0 / delta)
    _below_one(et, 1.0 - _SATURATION_GUARD, "eps/delta")  # so 1e-5 max(1, |et|) = 1e-5
    return _central_gradient(lambda P: [_legendre(spec, SymTensor(*E)) for E in P], et, _GRAD_STEP)


def _central_gradient(fn, point: SymTensor, h: float) -> SymTensor:
    # off-diagonal quotients halved: those components count twice in the inner product
    grad = central_differences(fn, point, h)
    return SymTensor(*grad[:3], *[0.5 * q for q in grad[3:]])
