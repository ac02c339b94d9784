"""Fixed-point solver for the implicit relation E = f_delta(E, Sbar).

One loop: Picard iteration from zero; if the residual ratio between
successive iterates exceeds 0.9, the Picard budget runs out or an iterate
leaves the domain, Newton on g(x) = x - F(x) from Picard's best iterate,
with a central-difference derivative and a backtracking line search. For
the density kinds f_delta(s m, Sbar) = phi(s) m (`families.density_line`),
so the unknown x is the scalar s of E = s m: two phi probes give Newton's
slope, and the six-component Newton step would be parallel to m anyway.
Otherwise x is the six stored components of E, with the twelve family_eval
probes of `symtensor.central_differences`; only a callable scaled_base base
reaches that Newton, as the stress-only kinds converge in exactly one
Picard step with residual exactly 0.0 (the second evaluation repeats the
same floats). Residuals are six-component norms, |m| |s - phi(s)| on the
line; a line solution reports |E - f_delta(E, Sbar)| at E = s m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveModulus, NoConvergence, OutOfDomain
from .families import DENSITY_KINDS, FamilySpec, density_line, family_eval, working_domain
from .symtensor import SymTensor, central_differences, frobenius

PICARD_BUDGET = 20
MAX_ITER = 200
RATIO_SWITCH = 0.9
FD_STEP = 1e-7
MAX_HALVINGS = 30

_DOMAIN_ERRORS = (OutOfDomain, NonpositiveModulus)


@dataclass(frozen=True)
class SolveReport:
    """Solution of E = f_delta(E, Sbar) reached from zero.

    `method` names the stage that met the tolerance: "picard" or "newton";
    `iterations` is 0 when zero itself met it, as for a zero stress.
    """

    solution: SymTensor
    iterations: int
    residual: float
    method: str
    interior_ball_ok: bool


def solve_implicit(spec: FamilySpec, delta: float, Sbar: SymTensor) -> SolveReport:
    """Solve E = f_delta(E, Sbar) to residual <= 1e-13.

    Picard from zero, then Newton from Picard's best iterate. Raises
    NoConvergence (with the best residual attached) or OutOfDomain when
    iterates cannot be kept inside the working ball.
    """
    return _solve(spec, delta, Sbar)


def solve_implicit_hencky(spec: FamilySpec, delta: float, T: SymTensor) -> SolveReport:
    """Solve H = f_delta(H, T); same contract as solve_implicit."""
    return _solve(spec, delta, T)


def _solve(spec, delta, stress) -> SolveReport:
    # solutions are O(delta) with delta < 1 (density_line or the first
    # family_eval checks it): an absolute tolerance avoids demanding relative
    # accuracy below machine precision
    tol = 1e-13
    iterations, prev = 0, 0.0  # no ratio test before the second residual
    line = spec.kind in DENSITY_KINDS
    if line:
        m, image = density_line(spec, delta, stress)
        unit = frobenius(m)
        size = lambda v: unit * abs(v)
        x = 0.0

        def newton_step(s, g):  # the same step in E as the six-component probes
            h = FD_STEP * max(1.0, abs(s) * unit) / unit
            return -g / (1.0 - (image(s + h) - image(s - h)) / (2.0 * h))
    else:
        image = lambda E: family_eval(spec, delta, E, stress)
        size = frobenius
        x = SymTensor()

        def newton_step(E, g):
            h = FD_STEP * max(1.0, frobenius(E))
            jac = np.transpose(central_differences(
                lambda P: [np.array((e - image(e)).components())
                           for e in (SymTensor(*p) for p in P)], E, h))
            return SymTensor(*np.linalg.solve(jac, -np.array(g.components())).tolist())

    def accept(x, res, method):
        """The report at x, or None if a line point misses tol in six components."""
        if line:
            x = m * x
            res = frobenius(x - family_eval(spec, delta, x, stress))
        return _report(spec, delta, x, iterations, res, method) if res <= tol else None

    best_x, best_res = x, math.inf
    while True:
        try:
            fx = image(x)
        except _DOMAIN_ERRORS:
            break
        res = size(x - fx)
        if res < best_res:
            best_x, best_res = x, res
        if res <= tol and (report := accept(x, res, "picard")):
            return report
        if iterations >= PICARD_BUDGET or (prev > 0.0 and res / prev > RATIO_SWITCH):
            break
        x = fx
        prev = res
        iterations += 1

    # Newton on g(x) = x - F(x); every accepted step lowers the residual, so
    # the current one is the best
    x = best_x
    while True:
        g = x - image(x)  # domain errors at the current iterate are fatal here
        res = size(g)
        if res <= tol and (report := accept(x, res, "newton")):
            return report
        if iterations >= MAX_ITER:  # the last step's residual is tested first
            raise NoConvergence(
                f"no convergence in {MAX_ITER} iterations; best residual {res!r}",
                best_residual=res,
            )
        try:
            step = newton_step(x, g)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            raise NoConvergence(
                f"singular jacobian at residual {res!r}", best_residual=res
            )
        t = 1.0
        domain_blocked = True
        for _ in range(MAX_HALVINGS + 1):
            trial = x + step * t
            try:
                rt = size(trial - image(trial))
            except _DOMAIN_ERRORS:
                t *= 0.5
                continue
            domain_blocked = False
            if rt < res:
                x = trial
                break
            t *= 0.5
        else:
            if domain_blocked:
                raise OutOfDomain(
                    "newton backtracking could not keep the iterate in the domain"
                )
            raise NoConvergence(
                f"line search stalled at residual {res!r}", best_residual=res
            )
        iterations += 1


def _report(spec, delta, E, iterations, res, method) -> SolveReport:
    interior = frobenius(E) <= 0.5 * (working_domain(spec) * delta)
    return SolveReport(E, iterations, res, method, interior)
