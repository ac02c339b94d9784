"""Strain-limiting constitutive families: f_delta, leading profiles, domains.

Four kinds are implemented:

- power_law: f_delta = delta * a (1 + a^p |S|^p)^{-1/p} S, stress-only.
- density_modulus_reciprocal: isotropic compliance with generalized modulus
  E_delta = delta^{-1} E0 [1 + a delta^{-1} ((det(I+2E))^{-1/2} - 1)].
- density_modulus_direct: same numerator with
  E_delta = delta^{-1} E0 [1 + a delta^{-1} ((det(I+2E))^{1/2} - 1)]^{-1}.
- scaled_base: a rescaling of the built-in power-law profile, which is
  power_law's map for its a and p; stress-only, with power_law's caps,
  balls and delta ceiling.

Stresses stay in B(0, c) for every kind, and strains in balls B(0, k*delta)
whose coefficients k `certified_domain` and `working_domain` return. Every
value of a stress-only kind lies in B(0, delta), so its one ball has
k = 1.05 and its delta ceiling is 0.1. A density kind has two: the certified
ball B(0, b*delta), where the closed-form constants are guaranteed
(constant certification), and a wider working ball for evaluation and
solving: the fixed points of E = f_delta(E, S) land outside B(0, b*delta)
for moderate stresses, so the working radius covers the full guaranteed
range of f_delta with 5% headroom while staying inside the
modulus-positivity region.

`family_eval`, `family_leading` and `leading_gap` also take batches, which
`symtensor.columns` reads, and return a SymTensor of (N,) columns ((N,) norms
for `leading_gap`) for every kind, one row per row of any batch argument,
raising the scalar call's error for the first failing row;
`family_eval` and `leading_gap` also take an (N,) column of deltas. A batch
runs the same formulas as a SymTensor whose components are numpy columns;
a density-kind row may differ from the scalar call in the last ulp (numpy
against libm `expm1`/`log1p`).
`density_line` reduces every kind at one stress and delta to its line E = s m,
f_delta(s m, Sbar) = phi(s) m (phi = 1 for a stress-only kind) with phi' in
closed form; `fixed_points` lists a density kind's roots of s = phi(s) by a polynomial.
This module alone decides the domains: `check_single` for each call that takes
no batch (these two and through them the solvers, the energy maps, `scalar1d`),
`check_ball` for a ball and `check_delta` for the deltas; NaN and inf fail each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InadmissibleDelta,
    InvalidParameter,
    NoConvergence,
    NonpositiveModulus,
    NotPositiveDefinite,
    OutOfDomain,
    SingularLeading,
    real,
)
from .symtensor import SymTensor, check_rows, columns, det, frobenius, is_batch, trace

# each kind -> the FamilySpec fields it reads; every other field keeps its default
KINDS = {
    "scaled_base": ("a", "p", "c", "base"),
    "power_law": ("a", "p", "c"),
    "density_modulus_reciprocal": ("a", "E0", "nu", "b", "c"),
    "density_modulus_direct": ("a", "E0", "nu", "b", "c"),
}
DENSITY_KINDS = ("density_modulus_reciprocal", "density_modulus_direct")

_WORKING_MARGIN = 1.05
# below it E/delta overflows or delta^2 is 0
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one strain-limiting family.

    `a` is dimensionless for the density kinds and an inverse-stress scale
    for the stress-only ones; `b` (density kinds alone) and `c` are the
    certified strain/stress ball coefficients. scaled_base needs
    `base="power_law"`, the built-in profile. The admissible deltas follow
    from these constants alone (see `delta_ceiling`). Building a spec stores
    each number as a float (`errors.real`) and raises InvalidParameter for
    any bad value, and then for any field outside its kind's `KINDS` entry
    that differs from its default.
    """

    kind: str
    a: float = 0.3
    p: float = 2.0
    E0: float = 1.0
    nu: float = 0.3
    b: float = 0.5
    c: float = 1.0
    base: str | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in KINDS):
            raise InvalidParameter(f"unknown family kind {self.kind!r}")
        for name in ("a", "p", "E0", "nu", "b", "c"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        # chained comparisons with math.inf: NaN and inf fail them too
        if not 0.0 < self.a < math.inf:
            raise InvalidParameter("a must be positive and finite")
        if not 1.0 <= self.p < math.inf:
            raise InvalidParameter("p must be finite and at least 1")
        if not 0.0 < self.E0 < math.inf:
            raise InvalidParameter("E0 must be positive and finite")
        if not 0.0 <= self.nu < 0.5:
            raise InvalidParameter("nu must lie in [0, 1/2)")
        if not (0.0 < self.b < math.inf and 0.0 < self.c < math.inf):
            raise InvalidParameter("b and c must be positive and finite")
        if self.kind in DENSITY_KINDS and self.a * self.b >= 0.5:
            raise InvalidParameter("density kinds require a*b < 1/2")
        if self.kind == "scaled_base" and self.base != "power_law":
            raise InvalidParameter(f"scaled_base needs base 'power_law', got {self.base!r}")
        if self.kind not in DENSITY_KINDS:
            # every stress has |S| <= c, so (a |S|)^p stays finite when (a c)^p does
            try:
                finite = (self.a * self.c) ** self.p < math.inf
            except OverflowError:
                finite = False
            if not finite:
                raise InvalidParameter("(a*c)^p overflows a float")
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if field.name not in KINDS[self.kind] and value != field.default:
                raise InvalidParameter(f"{self.kind} does not read {field.name}, got {value!r}")
        # (working coefficient k, delta_ceiling), computed once per spec; a plain
        # attribute keeps attribute reads on the spec on CPython's fast path
        object.__setattr__(self, "_working", (working_domain(self), delta_ceiling(self)))


def _density_guaranteed_coeff(spec: FamilySpec) -> float:
    # range bound of f_delta on the certified ball: (1+4nu) c / (E0 (1-2ab))
    return (1.0 + 4.0 * spec.nu) * spec.c / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))


def certify_caps(spec: FamilySpec) -> dict:
    """Caps on the certified constants from each kind's closed forms; absent ones
    are uncapped. The stress-only kinds share power_law's C0, C1 and D0 caps."""
    if spec.kind in DENSITY_KINDS:
        return {"C0": _density_guaranteed_coeff(spec)}
    return {"C0": 1.0 + 1e-9, "C1": 1e-12, "D0": 2.0 * spec.a + 1e-6}


def working_domain(spec: FamilySpec) -> float:
    """Coefficient k of the strain ball B(0, k*delta) used by evaluation, the
    solver and convergence studies; the stress ball is B(0, c) for every kind."""
    if spec.kind not in DENSITY_KINDS:
        return _WORKING_MARGIN
    return max(spec.b, _WORKING_MARGIN * _density_guaranteed_coeff(spec))


def certified_domain(spec: FamilySpec) -> float:
    """Coefficient k of the strain ball B(0, k*delta) on which the closed-form
    constants are guaranteed; the stress ball is B(0, c) for every kind."""
    if spec.kind in DENSITY_KINDS:
        return spec.b
    return working_domain(spec)


def delta_ceiling(spec: FamilySpec) -> float:
    """Admissibility ceiling: `check_delta` admits normal floats 0 < delta < ceiling."""
    if spec.kind not in DENSITY_KINDS:
        return 0.1
    ceiling = min(0.1, 1.0 / (50.0 * max(1.0, spec.a)))
    # keep the working ball inside B(0, 1/2) even for large stress radii
    return min(ceiling, 1.0 / (2.0 * working_domain(spec)))


def _check(ok, value, error, template, *context):
    """Raise `error` unless `ok` holds on every row; name the first failing row's values."""
    if ok is not True:  # scalar fast path skips the call
        check_rows(ok, error, lambda k: template.format(float(np.ravel(value)[k]), *[
            float(np.ravel(c)[k]) if isinstance(c, np.ndarray) else c for c in context]))


def check_ball(name: str, A, radius):
    """|A|, or the (N,) row norms of a batch; OutOfDomain unless each is <= radius.

    `radius` may be an (N,) column. The message names the first failing row.
    A radius that is not a number (`errors.real`) raises InvalidParameter.
    """
    if type(radius) is not float and not isinstance(radius, np.ndarray):
        radius = real(radius, "radius")
    return _within(name, frobenius(A), radius)


def _within(name, n, radius):
    ok = n <= radius
    if ok is not True:  # scalar fast path skips the call
        _check(ok, n, OutOfDomain, "|{1}| = {0!r} exceeds {2!r}", name, radius)
    return n


def check_delta(spec: FamilySpec, delta) -> None:
    """InadmissibleDelta unless delta (a number or an (N,) column) lies in
    (0, delta_ceiling) and is a normal float; names the first failing delta.
    A scalar that is not a number (`errors.real`) raises InvalidParameter."""
    ceiling = spec._working[1]
    if type(delta) is not float or not _SMALLEST_NORMAL <= delta < ceiling:
        d = np.asarray(delta if isinstance(delta, np.ndarray) else real(delta, "delta"),
                       dtype=float)
        _check((0.0 < d) & (d < ceiling), d, InadmissibleDelta,
               "delta {0!r} outside (0, {1!r}) for kind {2}", ceiling, spec.kind)
        _check(d >= _SMALLEST_NORMAL, d, InadmissibleDelta,
               "delta {0!r} is below the smallest normal float {1!r}", _SMALLEST_NORMAL)


def _batch(delta, *batches) -> list:
    """`columns(*batches)`; InvalidParameter unless delta is a number or an (N,) column."""
    cols = columns(*batches)
    if isinstance(delta, np.ndarray) and delta.shape != cols[0].xx.shape:  # a 0-d array too
        raise InvalidParameter(f"delta of shape {delta.shape} for {len(cols[0].xx)} rows")
    return cols


def check_single(name=None, A=None, delta=0.0) -> None:
    """InvalidParameter unless delta is one number (a float or a numpy scalar, no array,
    0-d included) and A, if given, one SymTensor of no numpy column whose components
    `errors.real` reads (no bool): the rule of every call that takes one point."""
    if not (type(delta) is float or np.isscalar(delta)):
        raise InvalidParameter(f"delta must be one number, not a batch, got {type(delta).__name__}")
    if A is not None:
        if not isinstance(A, SymTensor) or is_batch(A):
            raise InvalidParameter(f"{name} must be one SymTensor, not a batch")
        for x in A.components():
            if type(x) is not float:
                real(x, f"each component of {name}")


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


def _invariants(E: SymTensor):
    """(tr E, second invariant, det E)."""
    i2 = (
        E.xx * E.yy
        + E.xx * E.zz
        + E.yy * E.zz
        - E.xy * E.xy
        - E.xz * E.xz
        - E.yz * E.yz
    )
    return trace(E), i2, det(E)


def _modulus_factor(spec: FamilySpec, delta: float, t, i2, d):
    """phi with f_delta(E, Sbar) = phi m, from the invariants (t, i2, d) of E:
    delta / (E0 bracket) for the reciprocal kind, delta bracket / E0 for the
    direct one; only the positivity of I + 2E and of the bracket is enforced."""
    # det(I + 2E) - 1 expanded in the invariants of E, avoiding the cancellation
    # of forming det(...) and subtracting 1 when |E| is tiny
    dm1 = 2.0 * t + 4.0 * i2 + 8.0 * d
    _check(dm1 > -1.0, dm1, NotPositiveDefinite, "I + 2E is not positive definite")
    lib = np if isinstance(dm1, np.ndarray) else math
    # (det)^{-1/2} - 1 or (det)^{1/2} - 1, full relative precision near zero
    half = -0.5 if spec.kind == "density_modulus_reciprocal" else 0.5
    bracket = 1.0 + spec.a * lib.expm1(half * lib.log1p(dm1)) / delta
    _check(bracket > 0.0, bracket, NonpositiveModulus, "modulus bracket {!r} is nonpositive")
    if half < 0.0:
        return delta / (spec.E0 * bracket)
    return delta * bracket / spec.E0


def density_line(spec: FamilySpec, delta: float, Sbar: SymTensor):
    """(m, phi, slope) with f_delta(s m, Sbar) = phi(s) m and slope = phi', for every kind.

    A density kind has m = (1+nu) Sbar - nu tr(Sbar) I: f_delta(E, Sbar) is a
    multiple of m for every E, and phi(s) may differ from `family_eval` at
    s m in the last ulps. A stress-only kind has m = f_delta(0, Sbar), the
    floats of `family_eval`, phi = 1 and phi' = 0, so the equality is exact.
    Each fixed point is s m with s = phi(s). phi(s) raises what `family_eval`
    raises at s m, and slope(s) what phi(s) raises. Raises what `check_single`
    refuses, and what `family_eval` raises for delta and Sbar.
    """
    check_single("Sbar", Sbar, delta)
    check_delta(spec, delta)
    check_ball("Sbar", Sbar, spec.c)
    density = spec.kind in DENSITY_KINDS
    m = _iso_numerator(spec.nu, Sbar) if density else _power_leading(spec.a, spec.p, Sbar) * delta
    i1, i2, i3 = _invariants(m)
    size, radius = frobenius(m), spec._working[0] * delta

    def phi(s):
        s = s if type(s) is float else real(s, "s")
        _within("E", abs(s) * size, radius)
        if not density:
            return 1.0
        ss = s * s  # the invariants of s m
        return _modulus_factor(spec, delta, s * i1, ss * i2, ss * s * i3)

    def slope(s):  # phi'(s) in closed form: D = det(I + 2 s m), k = a D' / (2 E0 sqrt(D))
        f, s = phi(s), float(s)
        if not density:
            return 0.0
        D = 1.0 + (2.0 * s * i1 + 4.0 * s * s * i2 + 8.0 * s * s * s * i3)  # 1 + phi's dm1: > 0
        k = spec.a * (i1 + 4.0 * s * i2 + 12.0 * s * s * i3) / (spec.E0 * math.sqrt(D))
        return k * (spec.E0 * f / delta) ** 2 / D if spec.kind == "density_modulus_reciprocal" else k

    return m, phi, slope


def fixed_points(spec: FamilySpec, delta: float, Sbar: SymTensor):
    """(inside, beyond): the admissible roots s of s = phi(s) (`density_line`)
    in the working ball, ascending, and the nearest one beyond it, or None.

    In t = s / delta, D(s) = det(I + 2 s m) = 1 + delta Dm1(t) with
    Dm1(t) = 2 I1 t + 4 I2 delta t^2 + 8 I3 delta^2 t^3 (I1, I2, I3 those of m),
    and s = phi(s) squares to P(t) = 0, no coefficient spanning (a/delta)^2:
    direct u (side + a) - a^2 Dm1, u = E0 t - 1, side = a + delta u (a cubic);
    reciprocal (1 - E0 t)(side + E0 a t) + side^2 Dm1, side = delta + E0 (a - delta) t
    (a quintic). Real roots with t > 0, D > 0 and side >= 0 are admissible.
    A float locate (`np.roots`), not a proof: NoConvergence where np.roots
    overflows (at deltas near 1e-155). Raises InvalidParameter for a stress-only kind,
    and what `density_line` raises, a batch included.
    """
    if spec.kind not in DENSITY_KINDS:
        raise InvalidParameter(f"fixed_points needs a density kind, got {spec.kind}")
    m = density_line(spec, delta, Sbar)[0]
    i1, i2, i3 = _invariants(m)
    E0, a = spec.E0, spec.a
    Dm1 = [8.0 * i3 * delta * delta, 4.0 * i2 * delta, 2.0 * i1, 0.0]
    if spec.kind == "density_modulus_direct":
        side = [delta * E0, a - delta]
        P = np.polysub(np.convolve([E0, -1.0], [delta * E0, 2.0 * a - delta]),
                       np.multiply(a * a, Dm1))
    else:
        side = [E0 * (a - delta), delta]
        P = np.polyadd(np.convolve([-E0, 1.0], [E0 * (2.0 * a - delta), delta]),
                       np.convolve(np.convolve(side, side), Dm1))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t = np.sort([r.real for r in np.roots(P) if r.imag == 0.0])
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NoConvergence(f"np.roots failed on the census polynomial: {exc}") from None
    s = delta * t[(t > 0.0) & (delta * np.polyval(Dm1, t) > -1.0) & (np.polyval(side, t) >= 0.0)]
    inside = s * frobenius(m) <= spec._working[0] * delta
    return s[inside].tolist(), (float(s[~inside][0]) if not inside.all() else None)


def family_eval(spec: FamilySpec, delta: float, E, Sbar) -> SymTensor:
    """Evaluate f_delta(E, Sbar) on the working domain.

    Raises InadmissibleDelta unless `check_delta` admits delta, and
    OutOfDomain outside B(0, k*delta) x B(0, c). With (N, 6) arrays, SymTensors
    of (N,) columns or an (N,) column of deltas, one per row, the call is a
    batch (`columns`) and gives a SymTensor of (N,) columns for every kind;
    another delta array raises InvalidParameter.
    """
    check_delta(spec, delta)
    if not (isinstance(E, SymTensor) and isinstance(Sbar, SymTensor)
            and not isinstance(delta, np.ndarray)):  # the scalar path tests no shape
        E, Sbar = _batch(delta, E, Sbar)
    nE, nS = check_ball("E", E, spec._working[0] * delta), check_ball("Sbar", Sbar, spec.c)
    if type(nE) is not float and np.shape(nE) != np.shape(nS):
        E, Sbar = columns(E, Sbar)  # one row per strain, also where f_delta reads Sbar alone
    if spec.kind not in DENSITY_KINDS:
        # identical float path as delta * family_leading(...): the leading
        # residual of a stress-only kind is bit-equal to the full residual
        return _power_leading(spec.a, spec.p, Sbar) * delta
    factor = _modulus_factor(spec, delta, *_invariants(E))
    return _iso_numerator(spec.nu, Sbar) * factor


def family_leading(spec: FamilySpec, Etilde, Sbar) -> SymTensor:
    """Leading-order profile f_1(Etilde, Sbar) on the rescaled domain.

    (N, 6) arrays and SymTensors of (N,) columns are a batch (`columns`) and
    give a SymTensor of (N,) columns for every kind.
    """
    if not (isinstance(Etilde, SymTensor) and isinstance(Sbar, SymTensor)):
        Etilde, Sbar = columns(Etilde, Sbar)
    nE, nS = check_ball("Etilde", Etilde, spec._working[0]), check_ball("Sbar", Sbar, spec.c)
    if type(nE) is not float and np.shape(nE) != np.shape(nS):
        Etilde, Sbar = columns(Etilde, Sbar)  # one row per strain, as in family_eval
    if spec.kind not in DENSITY_KINDS:
        return _power_leading(spec.a, spec.p, Sbar)
    m = _iso_numerator(spec.nu, Sbar)
    if spec.kind == "density_modulus_reciprocal":
        den = 1.0 - spec.a * trace(Etilde)
        _check(den > 0.0, den, SingularLeading, "1 - a tr(Etilde) = {!r} is nonpositive")
        return m * (1.0 / (spec.E0 * den))
    return m * ((1.0 + spec.a * trace(Etilde)) / spec.E0)


def leading_gap(spec: FamilySpec, delta: float, E, Sbar, f_delta=None):
    """|f_delta(E, S) - delta f_1(E/delta, S)|.

    Exactly zero for the stress-only kinds (definitional identity, same
    float path); O(delta^2) for the density kinds. A batch gives the
    (N,) row norms; `delta` may then be an (N,) column. `f_delta`
    is `family_eval(spec, delta, E, Sbar)` when the caller already has it.
    """
    full = family_eval(spec, delta, E, Sbar) if f_delta is None else f_delta
    if isinstance(delta, np.ndarray) or not all(isinstance(t, SymTensor) for t in (E, Sbar, full)):
        E, Sbar, full = _batch(delta, E, Sbar, full)
    return frobenius(full - family_leading(spec, E * (1.0 / delta), Sbar) * delta)
