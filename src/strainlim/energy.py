"""Complementary energy, its Legendre transform, and the Green-elastic stress map.

The leading profile of the power-law family is the gradient of a radial
complementary energy W*(S) = G(|S|) with G the antiderivative of
a t (1 + a^p t^p)^{-1/p} (a `quad` integral for p != 2); W*(0) = 0 fixes the
free additive constant. A scaled_base W* is the line integral of the leading
profile along t S, t in [0, 1]: one `cubature` call integrates it for up to
`_BATCH_ROWS` stresses, e.g. the 12 N probes of N gradients; a subdivision one
row needs is shared by the call, which may move other rows' last digits. W is
the convex conjugate of W*, evaluated at the closed-form maximizer (the
tensor analogue of the one-dimensional inversion). The stress map of the
associated Green elastic solid is a finite-difference gradient of W.
Every map takes the family's `FamilySpec`: the stress-side maps accept the
`ENERGY_KINDS`, the strain-side ones power_law alone, and any other kind
raises InvalidParameter. Stresses must lie in the family's ball B(0, c)
(`check_ball`) and `green_stress`'s delta must pass `check_delta`. `quad` and
`cubature` import `scipy.integrate` on their first call, so only studies
that integrate (p != 2 or scaled_base) load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, NoConvergence, OutOfDomain, Saturation
from .families import FamilySpec, check_ball, check_delta, family_leading
from .scalar1d import one_minus_abs_pow
from .symtensor import SymTensor, central_differences, columns, frobenius, inner, is_finite, rows

# kinds whose leading profile is a gradient field: power_law, and scaled_base,
# whose built-in base is the power-law profile
ENERGY_KINDS = ("power_law", "scaled_base")
_QUAD_TOL = 1e-12
_GRAD_STEP = 1e-5
# rows per `cubature` call: about 100 rows pay off its ~1 ms fixed cost, and
# peak memory grows with the (nodes * rows, 6) arrays of larger calls
_BATCH_ROWS = 192
# wider than the FD step so gradient probes stay strictly inside the limit
_SATURATION_GUARD = 1e-4


def quad(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.quad(*args, **kwargs)


def cubature(*args, **kwargs):
    import scipy.integrate
    return scipy.integrate.cubature(*args, **kwargs)


def _radial_closed_form(a: float, s: float) -> float:
    # int_0^s a t (1 + a^2 t^2)^{-1/2} dt = ((1 + a^2 s^2)^{1/2} - 1)/a,
    # written to avoid the cancellation at small s
    return a * s * s / (1.0 + math.sqrt(1.0 + (a * s) ** 2))


def _radial_quad(a: float, p: float, s: float) -> float:
    # int_0^s a t (1 + (a t)^p)^{-1/p} dt
    if s == 0.0:
        return 0.0
    expo = -1.0 / p
    integrand = lambda t: a * t * (1.0 + (a * t) ** p) ** expo
    value, _ = quad(integrand, 0.0, s, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return value


def _line_integrals(spec: FamilySpec, rows: np.ndarray) -> np.ndarray:
    # W*(S) = int_0^1 <f_1(0, t S), S> dt for each row S, exact because the
    # leading profile is a gradient; one family_leading call takes every ray at every node
    check_ball("Sbar", rows, spec.c)
    if len(rows) > _BATCH_ROWS:
        return np.concatenate([_line_integrals(spec, rows[i:i + _BATCH_ROWS])
                               for i in range(0, len(rows), _BATCH_ROWS)])
    weighted = rows * [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def integrand(t):  # (m, 1) nodes -> (m, N) values
        lead = family_leading(spec, SymTensor(), (t[:, :, None] * rows).reshape(-1, 6))
        return (lead.reshape(len(t), *rows.shape) * weighted).sum(axis=-1)

    res = cubature(integrand, [0.0], [1.0], rule="gk21", rtol=_QUAD_TOL, atol=_QUAD_TOL)
    if res.status != "converged":
        raise NoConvergence(f"W* line integral {res.status}", float(np.max(res.error)))
    return res.estimate


def complementary_energy(spec: FamilySpec, Sbar: SymTensor) -> float:
    """W*(Sbar), normalized so W*(0) = 0; convex on the stress ball.

    Raises InvalidParameter for a kind outside ENERGY_KINDS.
    """
    if spec.kind not in ENERGY_KINDS:
        raise InvalidParameter(f"kind {spec.kind} has no complementary energy")
    if spec.kind == "scaled_base":
        return float(_line_integrals(spec, np.array([Sbar.components()]))[0])
    s = check_ball("Sbar", Sbar, spec.c)
    return _radial_closed_form(spec.a, s) if spec.p == 2.0 else _radial_quad(spec.a, spec.p, s)


def conjugate_stress(spec: FamilySpec, Etilde: SymTensor) -> SymTensor:
    """Closed-form maximizer of <Etilde, S> - W*(S): inverts the leading profile.

    a S = (1 - |Etilde|^p)^{-1/p} Etilde. Raises Saturation at |Etilde| >= 1
    and OutOfDomain when |Etilde| is NaN or inf.
    """
    if spec.kind != "power_law":
        raise InvalidParameter("closed-form conjugate requires the power_law profile")
    e = frobenius(Etilde)
    if not e < 1.0:  # a NaN or inf strain is out of the domain, not saturated
        raise (Saturation if math.isfinite(e) else OutOfDomain)(f"|Etilde| = {e!r} is not below 1")
    q = one_minus_abs_pow(e, spec.p)
    return Etilde * (q ** (-1.0 / spec.p) / spec.a)


def legendre_transform(spec: FamilySpec, Etilde: SymTensor) -> float:
    """W(Etilde) = sup_S [<Etilde, S> - W*(S)], evaluated at the maximizer."""
    star = conjugate_stress(spec, Etilde)
    if spec.p == 2.0:
        # closed form a^{-1}(1 - sqrt(1 - e^2)); keeps W exactly conjugate
        e = frobenius(Etilde)
        return e * e / (spec.a * (1.0 + math.sqrt(one_minus_abs_pow(e, 2.0))))
    # the conjugate stress may leave the configured stress ball; the radial
    # integral itself is defined for all stresses
    return inner(Etilde, star) - _radial_quad(spec.a, spec.p, frobenius(star))


def complementary_gradient(spec: FamilySpec, Sbar):
    """Central finite-difference gradient of W*; should reproduce the leading profile.

    Same six-component convention as green_stress: off-diagonal quotients
    are halved. The step is 1e-5 max(min(1, c), |Sbar|), so probes stay in a
    stress ball of any radius c when |Sbar| leaves a little headroom below c.
    A batch (`columns`) gives (N, 6) gradients; scaled_base integrates all
    12 N probes at once.
    """
    single = isinstance(Sbar, SymTensor) and not isinstance(Sbar.xx, np.ndarray)
    points = [Sbar] if single else rows(columns(Sbar)[0])
    floor = min(1.0, spec.c)
    if not _GRAD_STEP * floor > 0.0:
        raise InvalidParameter(f"the gradient step underflows for c = {spec.c!r}")
    steps = [_GRAD_STEP * max(floor, check_ball("Sbar", S, spec.c)) for S in points]
    if spec.kind == "scaled_base":
        fn = lambda P: _line_integrals(spec, np.reshape(P, (-1, 6))).tolist()
    else:
        fn = lambda P: [complementary_energy(spec, SymTensor(*S)) for S in P]
    grads = _central_gradient(fn, points, steps)
    return SymTensor(*grads[0]) if single else np.reshape(grads, (-1, 6))


def green_stress(spec: FamilySpec, delta: float, eps: SymTensor) -> SymTensor:
    """Stress of the linearized Green elastic solid: the gradient of W at eps/delta.

    Central finite differences on W in the six stored components; the
    off-diagonal quotients are halved because those components carry double
    weight in the matrix inner product. Raises InadmissibleDelta for a delta
    `check_delta` refuses, Saturation when |eps/delta| reaches 1 - 1e-4
    (probe points must stay strictly inside the limit) and OutOfDomain when
    it is NaN or inf (an int past the float range too).
    """
    check_delta(spec, delta)
    if not is_finite(eps):  # before eps/delta meets an int past the float range
        raise OutOfDomain(f"eps needs finite components, got {eps.components()!r}")
    et = eps * (1.0 / delta)
    e = frobenius(et)
    if not e < 1.0 - _SATURATION_GUARD:  # as in conjugate_stress
        raise (Saturation if math.isfinite(e) else OutOfDomain)(
            f"|eps/delta| = {e!r} is not below the strain limit minus 1e-4")
    h = _GRAD_STEP * max(1.0, e)
    return SymTensor(*_central_gradient(
        lambda P: [legendre_transform(spec, SymTensor(*E)) for E in P], [et], [h])[0])


def _central_gradient(fn, points: list, steps: list) -> list:
    # off-diagonal quotients halved: those components count twice in the inner product
    return [grad[:3] + [0.5 * q for q in grad[3:]]
            for grad in central_differences(fn, points, steps)]
