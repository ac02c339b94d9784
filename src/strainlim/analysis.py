"""Verification engine: convergence-order studies and constant certification.

A convergence study solves the implicit relation on a descending delta
ladder, rebuilds the finite deformation, and records how fast the
linearized-strain residuals shrink; orders are least-squares slopes in
log-log coordinates. The rungs are solved one by one, their kinematics
built in one batched call of each function (rows bit for bit the single
calls; a batch that raises is rebuilt rung by rung, so each failure keeps
its rung and message), and the families evaluated per rung. Certification
samples the certified balls B(0, k*delta) x B(0, c) and reports sampled
suprema for the defining constants (lower bounds on the true ones). Both check every delta up front
(`check_delta`). Consecutive delta rungs share one batched call of up to
2048 rows, with delta as an (N,) column; each rung is drawn and reduced as
if alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FitUnderdetermined, InvalidParameter, StrainLimError, integer, real
from .families import (
    FamilySpec,
    certified_domain,
    check_ball,
    check_delta,
    family_eval,
    family_leading,
    leading_gap,
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
from .symtensor import SymTensor, columns, frobenius, rows

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
    """Per-delta rows plus the fit_order of each column (None when the column is all zero)."""

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


def fit_order(deltas, residuals) -> Optional[float]:
    """Least-squares slope of log(residual) against log(delta), in closed form.

    Rows with residual exactly zero are excluded; if every row is zero the
    identity holds exactly and the result is None (there is no order to
    fit). Fewer than four usable rows, or usable rows of one delta, raise
    FitUnderdetermined; a non-number (`errors.real`), a negative, NaN or inf
    residual or a delta that is not finite and positive raises InvalidParameter.
    """
    deltas = [real(d, "delta") for d in deltas]  # any iterable, read once
    residuals = [real(r, "residual") for r in residuals]
    if len(deltas) != len(residuals):
        raise InvalidParameter("deltas and residuals must have equal length")
    if not all(0.0 < d < math.inf for d in deltas):  # NaN fails too
        raise InvalidParameter(f"deltas must be finite and positive, got {deltas!r}")
    if not all(0.0 <= r < math.inf for r in residuals):  # NaN fails too
        raise InvalidParameter(f"residuals must be finite and nonnegative, got {residuals!r}")
    if len(deltas) < 4:
        raise FitUnderdetermined(f"need at least 4 rows, got {len(deltas)}")
    pairs = [(math.log(d), math.log(r)) for d, r in zip(deltas, residuals) if r > 0.0]
    if not pairs:
        return None
    if len(pairs) < 4:
        raise FitUnderdetermined(f"only {len(pairs)} nonzero rows")
    xs, ys = zip(*pairs)
    if len(set(xs)) < 2:
        raise FitUnderdetermined(f"the nonzero rows share one log(delta) = {xs[0]!r}")
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - mx for x in xs]
    return math.fsum(dx * (y - my) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)


def _validate_ladder(spec, deltas) -> list:
    deltas = [real(d, "delta") for d in deltas]
    if len(deltas) < 4:
        raise FitUnderdetermined(f"need at least 4 deltas, got {len(deltas)}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise InvalidParameter("deltas must be strictly decreasing")
    check_delta(spec, np.asarray(deltas))
    return deltas


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
    deltas = _validate_ladder(spec, deltas)
    check_ball("T" if hencky else "Sbar", stress, spec.c)
    # looked up per call, not at import, so rebinding the module globals takes effect
    solve, deform, pushforward = (
        (solve_implicit_hencky, deformation_from_hencky, sigma_from_cauchy) if hencky
        else (solve_implicit, deformation_from_green, sigma_from_piola))

    def build(delta, E):
        # (delta0, eps, sigma) of each rung, in plain floats
        state = deform(E, make_rotation(rot, delta))
        sigma = pushforward(state.F, stress)
        return list(zip(np.ravel(state.delta0).tolist(), rows(state.eps), rows(sigma)))

    solved, failures = {}, {}  # rung index -> solution, or the exception that ended the rung
    for i, delta in enumerate(deltas):
        try:
            solved[i] = solve(spec, delta, stress).solution
        except StrainLimError as exc:
            failures[i] = exc
    strains = columns(np.reshape([E.components() for E in solved.values()], (-1, 6)))[0]
    try:  # the kinematics of every solved rung in one call of each function
        built = dict(zip(solved, build(np.array([deltas[i] for i in solved]), strains)))
    except StrainLimError:  # rung by rung, so that each failure keeps its rung and message
        built = {}
        for i, E in solved.items():
            try:
                (built[i],) = build(deltas[i], E)
            except StrainLimError as exc:
                failures[i] = exc
    records = []
    for i, (delta0, eps, sigma) in built.items():
        delta = deltas[i]
        try:
            records.append(
                ConvergenceRecord(
                    delta=delta,
                    delta0=delta0,
                    residual_full=frobenius(eps - family_eval(spec, delta, eps, sigma)),
                    residual_leading=frobenius(
                        eps - family_leading(spec, eps * (1.0 / delta), sigma) * delta),
                    stress_gap=frobenius(sigma - stress),
                    strain_gap=frobenius(solved[i] - eps),
                )
            )
        except StrainLimError as exc:
            failures[i] = exc
    return _assemble(records, [(deltas[i], f"{type(exc).__name__}: {exc}")
                               for i, exc in sorted(failures.items())])


def _assemble(records, failures) -> ConvergenceReport:
    if len(records) < 4:
        raise FitUnderdetermined(
            f"only {len(records)} successful rows; failures: {failures!r}"
        )
    ds = [r.delta for r in records]
    return ConvergenceReport(
        records=tuple(records),
        failures=tuple(failures),
        fitted_order_full=fit_order(ds, [r.residual_full for r in records]),
        fitted_order_leading=fit_order(ds, [r.residual_leading for r in records]),
        fitted_order_stress=fit_order(ds, [r.stress_gap for r in records]),
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
    reports on repeat runs). Raises InvalidParameter unless the deltas are
    numbers, samples an integer of at least 100 that numpy can allocate and
    seed one of at least 0 (`errors`), and when a constant is not a finite
    float, as when a tiny delta's probe distance or delta^2 underflows to 0.
    """
    samples = integer(samples, "samples", 100)
    seed = integer(seed, "seed", 0)
    deltas = [real(d, "delta") for d in deltas]
    if len(deltas) == 0:
        raise InvalidParameter("certification needs at least one delta")
    check_delta(spec, np.asarray(deltas))
    rng = np.random.default_rng(seed)
    k = certified_domain(spec)
    shrink = 1.0 - 2.0 * PROBE_SCALE
    per_call = max(1, _BATCH_ROWS // samples)
    rows = []
    for start in range(0, len(deltas), per_call):
        group = deltas[start:start + per_call]
        try:  # each rung draws in the order of a call of its own
            g_e, u_e, g_s, u_s, d_e, d_s = map(np.concatenate, zip(*[(
                rng.standard_normal((samples, 6)), rng.random(samples),
                rng.standard_normal((samples, 6)), rng.random(samples),
                rng.standard_normal((samples, 6)), rng.standard_normal((samples, 6)))
                for _ in group]))
        except ValueError:  # numpy refuses the shape outright
            raise InvalidParameter("samples is past numpy's array size") from None
        delta = np.repeat(np.asarray(group, dtype=float), samples)
        r_e, r_s = (k * delta)[:, None], spec.c
        e1 = ball_points(g_e, u_e, r_e * shrink)
        s1 = ball_points(g_s, u_s, r_s * shrink)
        e2 = e1 + ball_points(d_e, 1.0, 1.0) * (r_e * PROBE_SCALE)
        s2 = s1 + ball_points(d_s, 1.0, 1.0) * (r_s * PROBE_SCALE)
        del g_e, u_e, g_s, u_s, d_e, d_s  # spent; the evaluations reuse their memory, faster
        e1, s1, e2, s2 = columns(e1, s1, e2, s2)  # read once; every call below takes columns
        f00 = family_eval(spec, delta, e1, s1)
        f10 = family_eval(spec, delta, e2, s1)
        f01 = family_eval(spec, delta, e1, s2)
        with np.errstate(all="ignore"):  # checked below
            sups = [q.reshape(len(group), samples).max(axis=1) for q in (
                np.maximum(np.maximum(frobenius(f00), frobenius(f10)), frobenius(f01)) / delta,
                frobenius(f10 - f00) / frobenius(e2 - e1),
                frobenius(f01 - f00) / (delta * frobenius(s2 - s1)),
                leading_gap(spec, delta, e1, s1, f00) / (delta * delta))]
        bad = np.flatnonzero(~np.isfinite(sups).all(axis=0))
        if bad.size:
            raise InvalidParameter(f"the sampled constants at delta {group[bad[0]]!r} "
                                   "are not finite floats")
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
