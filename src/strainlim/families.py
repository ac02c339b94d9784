"""Strain-limiting constitutive families: f_delta, leading profiles, domains.

Four kinds are implemented:

- power_law: f_delta = delta * a (1 + a^p |S|^p)^{-1/p} S, stress-only.
- density_modulus_reciprocal: isotropic compliance with generalized modulus
  E_delta = delta^{-1} E0 [1 + a delta^{-1} ((det(I+2E))^{-1/2} - 1)].
- density_modulus_direct: same numerator with
  E_delta = delta^{-1} E0 [1 + a delta^{-1} ((det(I+2E))^{1/2} - 1)]^{-1}.
- scaled_base: (delta/delta1) f(delta1 E / delta, S) for a supplied bounded
  Lipschitz base f with |f| <= delta1.

Each family carries two concentric strain balls. The certified ball
B(0, b*delta) is where the closed-form constants are guaranteed and is what
`certified_domain` (used by constant certification) and the
`generalized_modulus` precondition refer to. The working ball used for
evaluation and solving is wider for the density kinds: the fixed points of
E = f_delta(E, S) land outside B(0, b*delta) for moderate stresses, so the
working radius covers the full guaranteed range of f_delta with 5%
headroom while staying inside the modulus-positivity region.

`family_eval`, `family_leading` and `leading_gap` also take (N, 6) arrays of
components (xx, yy, zz, xy, xz, yz) and return (N, 6) arrays ((N,) norms for
`leading_gap`), raising the scalar call's error for the first failing row;
`family_eval` and `leading_gap` also take an (N,) column of deltas. A batch
runs the same formulas as a SymTensor whose components are numpy columns;
a density-kind row may differ from the scalar call in the last ulp (numpy
against libm `expm1`/`log1p`).
Domain checks read `not (norm <= radius)`: NaN and inf raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    InadmissibleDelta,
    NonpositiveModulus,
    NotPositiveDefinite,
    OutOfDomain,
    SingularLeading,
)
from .symtensor import SymTensor, det, frobenius, trace

KINDS = (
    "scaled_base",
    "power_law",
    "density_modulus_reciprocal",
    "density_modulus_direct",
)
DENSITY_KINDS = ("density_modulus_reciprocal", "density_modulus_direct")

_WORKING_MARGIN = 1.05


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one strain-limiting family.

    `a` is dimensionless for the density kinds and an inverse-stress scale
    for power_law; `b` and `c` are the certified strain/stress ball
    coefficients; `delta1` and `base` only matter for scaled_base. `base`
    is a callable (Etilde, Sbar) -> SymTensor bounded by delta1, or the
    string "power_law" naming the built-in profile (the serializable
    choice). `delta_max` overrides the admissibility ceiling.
    """

    kind: str
    a: float = 0.3
    p: float = 2.0
    E0: float = 1.0
    nu: float = 0.3
    b: float = 0.5
    c: float = 1.0
    delta1: float = 0.05
    delta_max: Optional[float] = None
    base: Union[Callable, str, None] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        # chained comparisons with math.inf: NaN and inf fail them too
        if not 0.0 < self.a < math.inf:
            raise ValueError("a must be positive and finite")
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must be finite and at least 1")
        if not 0.0 < self.E0 < math.inf:
            raise ValueError("E0 must be positive and finite")
        if not 0.0 <= self.nu < 0.5:
            raise ValueError("nu must lie in [0, 1/2)")
        if not (0.0 < self.b < math.inf and 0.0 < self.c < math.inf):
            raise ValueError("b and c must be positive and finite")
        if not 0.0 < self.delta1 < math.inf:
            raise ValueError("delta1 must be positive and finite")
        if self.kind in DENSITY_KINDS and self.a * self.b >= 0.5:
            raise ValueError("density kinds require a*b < 1/2")
        if self.delta_max is not None and not 0.0 < self.delta_max < math.inf:
            raise ValueError("delta_max override must be positive and finite")
        if self.kind == "scaled_base":
            if self.base is None:
                raise ValueError("scaled_base requires a base profile")
            if isinstance(self.base, str) and self.base != "power_law":
                raise ValueError(f"unknown named base {self.base!r}")
        # (working_domain, delta_ceiling), computed once per spec; a plain
        # attribute keeps attribute reads on the spec on CPython's fast path
        object.__setattr__(self, "_working", (working_domain(self), delta_ceiling(self)))


@dataclass(frozen=True)
class DomainSpec:
    """Ball domain U_delta x V: strain radius scales with delta, stress does not."""

    strain_coeff: float
    stress_radius: float

    def strain_radius(self, delta: float) -> float:
        return self.strain_coeff * delta


def _density_guaranteed_coeff(spec: FamilySpec) -> float:
    # range bound of f_delta on the certified ball: (1+4nu) c / (E0 (1-2ab))
    return (1.0 + 4.0 * spec.nu) * spec.c / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))


def working_domain(spec: FamilySpec) -> DomainSpec:
    """Domain used by evaluation, the solver, and convergence studies."""
    if spec.kind == "power_law":
        return DomainSpec(_WORKING_MARGIN, spec.c)
    if spec.kind == "scaled_base":
        return DomainSpec(spec.b / spec.delta1, spec.c)
    coeff = max(spec.b, _WORKING_MARGIN * _density_guaranteed_coeff(spec))
    return DomainSpec(coeff, spec.c)


def certified_domain(spec: FamilySpec) -> DomainSpec:
    """Ball on which the closed-form constants are guaranteed."""
    if spec.kind in DENSITY_KINDS:
        return DomainSpec(spec.b, spec.c)
    return working_domain(spec)


def delta_ceiling(spec: FamilySpec) -> float:
    """Admissibility ceiling: deltas must satisfy 0 < delta < ceiling."""
    if spec.delta_max is not None:
        return spec.delta_max
    if spec.kind == "power_law":
        return 0.1
    if spec.kind == "scaled_base":
        # keep the rescaled strain radius (b/delta1)*delta at or below 1/2
        return min(0.1, spec.delta1 / (2.0 * spec.b))
    ceiling = min(0.1, 1.0 / (50.0 * max(1.0, spec.a)))
    # keep the working ball inside B(0, 1/2) even for large stress radii
    return min(ceiling, 1.0 / (2.0 * working_domain(spec).strain_coeff))


def is_admissible(spec: FamilySpec, delta: float) -> bool:
    return 0.0 < delta < spec._working[1]


def _check(ok, value, error, template, *context):
    """Raise `error` unless `ok` holds on every row; name the first failing row's values."""
    if ok is not True:
        bad = np.flatnonzero(np.logical_not(ok))
        if bad.size:
            row = [float(np.ravel(c)[bad[0]]) if isinstance(c, np.ndarray) else c for c in context]
            raise error(template.format(float(np.ravel(value)[bad[0]]), *row))


def _check_ball(name, A, radius):
    n = frobenius(A)
    ok = n <= radius
    if ok is not True:  # scalar fast path skips the call
        _check(ok, n, OutOfDomain, "|{1}| = {0!r} exceeds {2!r}", name, radius)


def _columns(*tensors):
    """SymTensors of (N,) columns from SymTensor or (N, 6) array arguments."""
    arrays = np.broadcast_arrays(*[
        np.asarray(t.components() if isinstance(t, SymTensor) else t, dtype=float)
        for t in tensors
    ])
    if arrays[0].ndim != 2 or arrays[0].shape[1] != 6:
        raise ValueError("batched tensors must be (N, 6) component arrays")
    return [SymTensor(*np.ascontiguousarray(a.T)) for a in arrays]


def _rows(A: SymTensor) -> np.ndarray:
    return np.column_stack(A.components())


def _power_leading(a: float, p: float, Sbar: SymTensor) -> SymTensor:
    ns = frobenius(Sbar)
    return Sbar * (a * (1.0 + (a * ns) ** p) ** (-1.0 / p))


def _iso_numerator(nu: float, Sbar: SymTensor) -> SymTensor:
    # (1+nu) S - nu tr(S) I
    t = nu * trace(Sbar)
    k = 1.0 + nu
    return SymTensor(
        k * Sbar.xx - t,
        k * Sbar.yy - t,
        k * Sbar.zz - t,
        k * Sbar.xy,
        k * Sbar.xz,
        k * Sbar.yz,
    )


def _det_i2e_minus_one(E: SymTensor) -> float:
    # det(I + 2E) - 1 expanded in invariants of E, avoiding the cancellation
    # of forming det(...) and subtracting 1 when |E| is tiny
    t = trace(E)
    i2 = (
        E.xx * E.yy
        + E.xx * E.zz
        + E.yy * E.zz
        - E.xy * E.xy
        - E.xz * E.xz
        - E.yz * E.yz
    )
    return 2.0 * t + 4.0 * i2 + 8.0 * det(E)


def _modulus_brackets(spec: FamilySpec, delta: float, E: SymTensor):
    """(reciprocal bracket, direct denominator) for the density moduli.

    Only positivity is enforced here; the certified-ball check belongs to
    the public `generalized_modulus`.
    """
    dm1 = _det_i2e_minus_one(E)
    _check(dm1 > -1.0, dm1, NotPositiveDefinite, "I + 2E is not positive definite")
    lib = np if isinstance(dm1, np.ndarray) else math
    # (det)^{-1/2} - 1 or (det)^{1/2} - 1, full relative precision near zero
    half = -0.5 if spec.kind == "density_modulus_reciprocal" else 0.5
    bracket = 1.0 + spec.a * lib.expm1(half * lib.log1p(dm1)) / delta
    _check(bracket > 0.0, bracket, NonpositiveModulus, "modulus bracket {!r} is nonpositive")
    return bracket


def _scaled_leading(spec: FamilySpec, Etilde: SymTensor, Sbar: SymTensor) -> SymTensor:
    d1 = spec.delta1
    if not callable(spec.base):
        # built-in: the power-law profile scaled to the |f| <= delta1 convention
        return _power_leading(spec.a, spec.p, Sbar) * d1 * (1.0 / d1)
    if not isinstance(Sbar.xx, np.ndarray):
        return spec.base(Etilde * d1, Sbar) * (1.0 / d1)
    # a user base sees a batch one row at a time
    rows = [spec.base(SymTensor(*e), SymTensor(*s)).components()
            for e, s in zip(_rows(Etilde * d1).tolist(), _rows(Sbar).tolist())]
    return SymTensor(*np.array(rows, dtype=float).reshape(-1, 6).T) * (1.0 / d1)


def family_eval(spec: FamilySpec, delta: float, E, Sbar):
    """Evaluate f_delta(E, Sbar) on the working domain.

    Raises InadmissibleDelta outside (0, delta_ceiling) and OutOfDomain
    outside U_delta x V. (N, 6) arrays give an (N, 6) array; with them
    `delta` may also be an (N,) column, one delta per row.
    """
    dom, ceiling = spec._working
    if isinstance(E, SymTensor) and isinstance(Sbar, SymTensor):
        if not 0.0 < delta < ceiling:
            raise InadmissibleDelta(
                f"delta {delta!r} outside (0, {ceiling!r}) for kind {spec.kind}"
            )
        return _eval(spec, dom, delta, E, Sbar)
    d = np.asarray(delta, dtype=float)
    _check((0.0 < d) & (d < ceiling), d, InadmissibleDelta,
           "delta {0!r} outside (0, {1!r}) for kind {2}", ceiling, spec.kind)
    return _rows(_eval(spec, dom, delta, *_columns(E, Sbar)))


def _eval(spec, dom: DomainSpec, delta: float, E: SymTensor, Sbar: SymTensor) -> SymTensor:
    _check_ball("E", E, dom.strain_radius(delta))
    _check_ball("Sbar", Sbar, dom.stress_radius)
    if spec.kind == "power_law":
        # identical float path as delta * family_leading(...): the leading
        # residual of this kind is bit-equal to the full residual
        return _power_leading(spec.a, spec.p, Sbar) * delta
    if spec.kind == "scaled_base":
        return _scaled_leading(spec, E * (1.0 / delta), Sbar) * delta
    bracket = _modulus_brackets(spec, delta, E)
    m = _iso_numerator(spec.nu, Sbar)
    if spec.kind == "density_modulus_reciprocal":
        return m * (delta / (spec.E0 * bracket))
    return m * (delta * bracket / spec.E0)


def generalized_modulus(spec: FamilySpec, delta: float, E: SymTensor) -> float:
    """Generalized Young's modulus E_delta(E) on the certified ball |E| <= b*delta.

    Raises NonpositiveModulus if the modulus falls below the guaranteed
    lower bound delta^{-1} E0 (1 - 2ab), which signals a precondition
    violation (the bound holds for both density kinds on the certified
    ball, for admissible delta).
    """
    if spec.kind not in DENSITY_KINDS:
        raise ValueError("generalized_modulus is defined for the density kinds only")
    if not is_admissible(spec, delta):
        raise InadmissibleDelta(
            f"delta {delta!r} outside (0, {delta_ceiling(spec)!r}) for kind {spec.kind}"
        )
    if not frobenius(E) <= spec.b * delta:
        raise OutOfDomain(
            f"|E| = {frobenius(E)!r} exceeds the certified radius {spec.b * delta!r}"
        )
    bracket = _modulus_brackets(spec, delta, E)
    floor = 1.0 - 2.0 * spec.a * spec.b
    if spec.kind == "density_modulus_reciprocal":
        if bracket < floor:
            raise NonpositiveModulus(
                f"bracket {bracket!r} underflows the guaranteed bound {floor!r}"
            )
        return spec.E0 * bracket / delta
    if bracket > 1.0 / floor:
        raise NonpositiveModulus(
            f"modulus denominator {bracket!r} exceeds {1.0 / floor!r}"
        )
    return spec.E0 / (delta * bracket)


def family_leading(spec: FamilySpec, Etilde, Sbar):
    """Leading-order profile f_1(Etilde, Sbar) on the rescaled domain.

    (N, 6) arrays give an (N, 6) array.
    """
    if isinstance(Etilde, SymTensor) and isinstance(Sbar, SymTensor):
        return _leading(spec, Etilde, Sbar)
    return _rows(_leading(spec, *_columns(Etilde, Sbar)))


def _leading(spec: FamilySpec, Etilde: SymTensor, Sbar: SymTensor) -> SymTensor:
    dom = spec._working[0]
    _check_ball("Etilde", Etilde, dom.strain_coeff)
    _check_ball("Sbar", Sbar, dom.stress_radius)
    if spec.kind == "power_law":
        return _power_leading(spec.a, spec.p, Sbar)
    if spec.kind == "scaled_base":
        return _scaled_leading(spec, Etilde, Sbar)
    m = _iso_numerator(spec.nu, Sbar)
    if spec.kind == "density_modulus_reciprocal":
        den = 1.0 - spec.a * trace(Etilde)
        _check(den > 0.0, den, SingularLeading, "1 - a tr(Etilde) = {!r} is nonpositive")
        return m * (1.0 / (spec.E0 * den))
    return m * ((1.0 + spec.a * trace(Etilde)) / spec.E0)


def leading_gap(spec: FamilySpec, delta: float, E, Sbar):
    """|f_delta(E, S) - delta f_1(E/delta, S)|.

    Exactly zero for power_law and scaled_base (definitional identity,
    same float path); O(delta^2) for the density kinds. (N, 6) arrays
    give the (N,) row norms; `delta` may then be an (N,) column.
    """
    full = family_eval(spec, delta, E, Sbar)
    d = delta[..., None] if isinstance(delta, np.ndarray) else delta
    lead = family_leading(spec, E * (1.0 / d), Sbar) * d
    return frobenius(full - lead)
