"""Verification engine: convergence-order studies and constant certification.

A convergence study solves the implicit relation on a descending delta
ladder, rebuilds the finite deformation, and records how fast the
linearized-strain residuals shrink; orders are least-squares slopes in
log-log coordinates, with pairwise Richardson ratios available as a
diagnostic. Certification samples the family's certified ball and reports
sampled suprema for the defining constants (lower bounds on the true ones).
Consecutive delta rungs share one batched call of up to 2048 rows, with
delta as an (N,) column; each rung is drawn and reduced as if alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AllZeroResiduals,
    FitUnderdetermined,
    InadmissibleDelta,
    InvalidParameter,
    OutOfDomain,
    StrainLimError,
)
from .families import (
    FamilySpec,
    certified_domain,
    family_eval,
    family_leading,
    is_admissible,
    leading_gap,
    working_domain,
)
from .kinematics import (
    RotationSpec,
    deformation_from_green,
    deformation_from_hencky,
    make_rotation,
    sigma_from_cauchy,
    sigma_from_piola,
)
from .solver import solve_implicit, solve_implicit_hencky
from .symtensor import SymTensor, frobenius

# difference-quotient probes sit at this fraction of the domain radius;
# base draws shrink by twice that so probe partners stay inside the ball
PROBE_SCALE = 1e-3

# component weights mapping the Euclidean unit ball onto the Frobenius one
_SYM_WEIGHTS = np.array([1.0, 1.0, 1.0] + [1.0 / math.sqrt(2.0)] * 3)
_XX = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_BATCH_ROWS = 2048  # rows per certification call; a larger rung gets a call of its own


@dataclass(frozen=True)
class ConvergenceRecord:
    delta: float
    delta0: float
    residual_full: float
    residual_leading: float
    stress_gap: float
    strain_gap: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-delta rows plus fitted orders (None when a residual is identically zero)."""

    records: tuple
    failures: tuple
    fitted_order_full: Optional[float]
    fitted_order_leading: Optional[float]
    fitted_order_stress: Optional[float]


@dataclass(frozen=True)
class CertificateRow:
    delta: float
    C0_hat: float
    C1_hat: float
    D0_hat: float
    C3_hat: float


@dataclass(frozen=True)
class CertificateReport:
    """Sampled suprema for the family constants; lower bounds on the true values."""

    C0_hat: float
    C1_hat: float
    D0_hat: float
    C3_hat: float
    samples: int
    seed: int
    rows: tuple


def fit_order(deltas, residuals) -> float:
    """Least-squares slope of log(residual) against log(delta).

    Rows with residual exactly zero are excluded; if every row is zero the
    identity holds exactly and AllZeroResiduals is raised (success, there
    is no order to fit). Fewer than four usable rows raise FitUnderdetermined;
    a negative, NaN or inf residual raises InvalidParameter.
    """
    if len(deltas) != len(residuals):
        raise ValueError("deltas and residuals must have equal length")
    if not all(0.0 <= r < math.inf for r in residuals):  # NaN fails too
        raise InvalidParameter(f"residuals must be finite and nonnegative, got {residuals!r}")
    if len(deltas) < 4:
        raise FitUnderdetermined(f"need at least 4 rows, got {len(deltas)}")
    pairs = [(d, r) for d, r in zip(deltas, residuals) if r > 0.0]
    if not pairs:
        raise AllZeroResiduals("every residual is exactly zero")
    if len(pairs) < 4:
        raise FitUnderdetermined(f"only {len(pairs)} nonzero rows")
    ds = np.log([d for d, _ in pairs])
    rs = np.log([r for _, r in pairs])
    return float(np.polyfit(ds, rs, 1)[0])


def richardson_orders(deltas, values):
    """Pairwise orders log(r_i/r_{i+1}) / log(d_i/d_{i+1}) for consecutive rows.

    Diagnostic only (exposes pre-asymptotic contamination); pairs with a
    zero value are skipped.
    """
    out = []
    for (d0, r0), (d1, r1) in zip(zip(deltas, values), zip(deltas[1:], values[1:])):
        if r0 > 0.0 and r1 > 0.0 and d0 != d1:
            out.append(math.log(r0 / r1) / math.log(d0 / d1))
    return out


def _fit_or_none(deltas, values) -> Optional[float]:
    try:
        return fit_order(deltas, values)
    except AllZeroResiduals:
        return None


def _require_admissible(spec, deltas):
    for d in deltas:
        if not is_admissible(spec, d):
            raise InadmissibleDelta(f"delta {d!r} is not admissible for kind {spec.kind}")


def _validate_ladder(spec, deltas):
    if len(deltas) < 4:
        raise FitUnderdetermined(f"need at least 4 deltas, got {len(deltas)}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    _require_admissible(spec, deltas)


def _leading_residual(spec, delta, eps, sigma) -> float:
    lead = family_leading(spec, eps * (1.0 / delta), sigma) * delta
    return frobenius(eps - lead)


def run_convergence(
    spec: FamilySpec, Sbar: SymTensor, rot: RotationSpec, deltas
) -> ConvergenceReport:
    """Green-strain route: solve E = f_delta(E, Sbar), F = R (I+2E)^{1/2}.

    Per row: delta0 = |F - I|, residual_full = |eps - f_delta(eps, sigma)|,
    residual_leading = |eps - delta f_1(eps/delta, sigma)| with sigma the
    symmetrized Piola stress, stress_gap = |sigma - Sbar|, strain_gap =
    |E - eps|. Failed rows are recorded and skipped by the fits.
    """
    return _run_ladder(spec, Sbar, rot, deltas, hencky=False)


def run_convergence_hencky(
    spec: FamilySpec, T: SymTensor, rot: RotationSpec, deltas
) -> ConvergenceReport:
    """Hencky-strain route: solve H = f_delta(H, T), F = e^H R.

    Same record layout as run_convergence with the Cauchy-derived stress
    sigma = det(F) (T F^{-T} + F^{-1} T)/2 and strain_gap = |H - eps|.
    """
    return _run_ladder(spec, T, rot, deltas, hencky=True)


def _run_ladder(spec, stress, rot, deltas, hencky) -> ConvergenceReport:
    _validate_ladder(spec, deltas)
    if not frobenius(stress) <= working_domain(spec).stress_radius:  # NaN fails too
        raise OutOfDomain("%s lies outside the stress ball" % ("T" if hencky else "Sbar"))
    # looked up per call, not at import, so rebinding the module globals takes effect
    solve, deform, pushforward = (
        (solve_implicit_hencky, deformation_from_hencky, sigma_from_cauchy) if hencky
        else (solve_implicit, deformation_from_green, sigma_from_piola))
    records, failures = [], []
    for delta in deltas:
        try:
            rep = solve(spec, delta, stress)
            state = deform(rep.solution, make_rotation(rot, delta))
            sigma = pushforward(state.F, stress)
            eps = state.eps
            records.append(
                ConvergenceRecord(
                    delta=delta,
                    delta0=state.delta0,
                    residual_full=frobenius(eps - family_eval(spec, delta, eps, sigma)),
                    residual_leading=_leading_residual(spec, delta, eps, sigma),
                    stress_gap=frobenius(sigma - stress),
                    strain_gap=frobenius(rep.solution - eps),
                )
            )
        except StrainLimError as exc:
            failures.append((delta, f"{type(exc).__name__}: {exc}"))
    return _assemble(records, failures)


def _assemble(records, failures) -> ConvergenceReport:
    if len(records) < 4:
        raise FitUnderdetermined(
            f"only {len(records)} successful rows; failures: {failures!r}"
        )
    ds = [r.delta for r in records]
    return ConvergenceReport(
        records=tuple(records),
        failures=tuple(failures),
        fitted_order_full=_fit_or_none(ds, [r.residual_full for r in records]),
        fitted_order_leading=_fit_or_none(ds, [r.residual_leading for r in records]),
        fitted_order_stress=_fit_or_none(ds, [r.stress_gap for r in records]),
    )


def ball_points(gauss, u, radius) -> np.ndarray:
    """Points uniform in component volume over the Frobenius ball of `radius`.

    Normal draws `gauss` of shape (N, 6) or (6,) give (xx, yy, zz, xy, xz, yz)
    rows of that shape; `u` is one uniform draw per point (1 gives the sphere).
    `radius` is a float or an (N, 1) column, one radius per row.
    """
    g = np.asarray(gauss, dtype=float)
    n = np.sqrt((g * g).sum(axis=-1, keepdims=True))
    zero = n == 0.0
    if zero.any():
        g, n = np.where(zero, _XX, g), np.where(zero, 1.0, n)
    rho = radius * np.asarray(u, dtype=float)[..., None] ** (1.0 / 6.0)
    return g * (rho / n) * _SYM_WEIGHTS


def certify_constants(
    spec: FamilySpec, deltas, samples: int, seed: int
) -> CertificateReport:
    """Sample the certified ball and report supremum estimates per delta.

    C0_hat = max |f_delta|/delta, C1_hat = max strain difference quotient,
    D0_hat = max stress difference quotient / delta, C3_hat = max
    leading_gap / delta^2. Deterministic for a given seed (byte-identical
    reports on repeat runs).
    """
    if samples < 100:
        raise InvalidParameter("samples must be at least 100")
    if len(deltas) == 0:
        raise InvalidParameter("certification needs at least one delta")
    _require_admissible(spec, deltas)
    rng = np.random.default_rng(seed)
    dom = certified_domain(spec)
    shrink = 1.0 - 2.0 * PROBE_SCALE
    per_call = max(1, _BATCH_ROWS // samples)
    rows = []
    for start in range(0, len(deltas), per_call):
        group = deltas[start:start + per_call]
        n = len(group) * samples
        g_e, u_e, g_s, u_s, d_e, d_s = draws = [
            np.empty(shape) for shape in ((n, 6), n, (n, 6), n, (n, 6), (n, 6))]
        for rung in range(len(group)):  # the generator order of one rung per call
            for a in draws:
                part = a[rung * samples:(rung + 1) * samples]
                (rng.random if a.ndim == 1 else rng.standard_normal)(out=part)
        delta = np.repeat(np.asarray(group, dtype=float), samples)
        r_e, r_s = dom.strain_radius(delta)[:, None], dom.stress_radius
        e1 = ball_points(g_e, u_e, r_e * shrink)
        s1 = ball_points(g_s, u_s, r_s * shrink)
        e2 = e1 + ball_points(d_e, 1.0, 1.0) * (r_e * PROBE_SCALE)
        s2 = s1 + ball_points(d_s, 1.0, 1.0) * (r_s * PROBE_SCALE)
        del g_e, u_e, g_s, u_s, d_e, d_s, draws  # spent; freeing them lowers the peak
        f00 = family_eval(spec, delta, e1, s1)
        f10 = family_eval(spec, delta, e2, s1)
        f01 = family_eval(spec, delta, e1, s2)
        sups = [q.reshape(len(group), samples).max(axis=1) for q in (
            np.maximum(np.maximum(frobenius(f00), frobenius(f10)), frobenius(f01)) / delta,
            frobenius(f10 - f00) / frobenius(e2 - e1),
            frobenius(f01 - f00) / (delta * frobenius(s2 - s1)),
            leading_gap(spec, delta, e1, s1) / (delta * delta))]
        rows += [CertificateRow(d, *map(float, c)) for d, *c in zip(group, *sups)]
    return CertificateReport(
        C0_hat=max(r.C0_hat for r in rows),
        C1_hat=max(r.C1_hat for r in rows),
        D0_hat=max(r.D0_hat for r in rows),
        C3_hat=max(r.C3_hat for r in rows),
        samples=samples,
        seed=seed,
        rows=tuple(rows),
    )
