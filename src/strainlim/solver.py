"""Fixed-point solver for the implicit relation E = f_delta(E, Sbar).

Every kind is solved on its line (`families.density_line`, the solve's one gate):
f_delta(s m, Sbar) = phi(s) m, so each fixed point is E = s m with s = phi(s).
Picard iteration runs from zero; a stress-only kind (phi = 1) stops at zero when
|m| <= 1e-13, else at m after one step with residual exactly 0.0. If Picard's
budget runs out or an iterate leaves the domain, Newton on g(s) = s - phi(s),
in full steps on the closed-form slope phi', runs from the smallest root that
`families.fixed_points` locates in the working ball (with none there,
NoConvergence names the nearest root beyond it as |E|/delta). The residual
|m| |s - phi(s)| and |E - f_delta(E, Sbar)| at E = s m both meet 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveModulus, NoConvergence, OutOfDomain
from .families import FamilySpec, density_line, family_eval, fixed_points, working_domain
from .symtensor import SymTensor, frobenius

PICARD_BUDGET = 20
MAX_ITER = 200


@dataclass(frozen=True)
class SolveReport:
    """Solution of E = f_delta(E, Sbar).

    `method` names the stage that met the tolerance: "picard" or "newton";
    `iterations` is 0 when zero itself met it, as for a zero stress.
    """

    solution: SymTensor
    iterations: int
    residual: float
    method: str
    interior_ball_ok: bool


def solve_implicit(spec: FamilySpec, delta: float, Sbar: SymTensor) -> SolveReport:
    """Solve E = f_delta(E, Sbar) to residual <= 1e-13, as the module docstring says.

    Raises what `density_line` raises for delta and Sbar, NoConvergence,
    with the best residual attached, when the working ball holds no fixed point
    or Newton fails, and OutOfDomain when a Newton iterate leaves that ball.
    """
    return _solve(spec, delta, Sbar)


def solve_implicit_hencky(spec: FamilySpec, delta: float, T: SymTensor) -> SolveReport:
    """Solve H = f_delta(H, T); same contract as solve_implicit."""
    return _solve(spec, delta, T)


def _solve(spec, delta, stress) -> SolveReport:
    m, phi, slope = density_line(spec, delta, stress)
    unit = frobenius(m)
    tol = 1e-13  # absolute: solutions are O(delta), delta < 1 (density_line checks it)

    def accept(s, method):
        """The report at E = s m, or None if it misses tol in six components."""
        E = m * s
        res = frobenius(E - family_eval(spec, delta, E, stress))
        interior = frobenius(E) <= 0.5 * (working_domain(spec) * delta)
        return SolveReport(E, iterations, res, method, interior) if res <= tol else None

    s, best = 0.0, math.inf
    for iterations in range(PICARD_BUDGET + 1):
        try:
            fs = phi(s)
        except (OutOfDomain, NonpositiveModulus):
            break
        res = unit * abs(s - fs)
        best = min(best, res)
        if res <= tol and (report := accept(s, "picard")):
            return report
        s = fs

    roots, beyond = fixed_points(spec, delta, stress)
    if not roots:
        nearest = "none" if beyond is None else f"nearest at |E|/delta = {beyond * unit / delta!r}"
        raise NoConvergence(f"no fixed point in the working ball ({nearest}); "
                            f"best residual {best!r}", best_residual=best)
    s = roots[0]  # Newton on g(s) = s - phi(s); domain errors are fatal here
    while True:
        g = s - phi(s)
        res = unit * abs(g)
        best = min(best, res)
        if res <= tol and (report := accept(s, "newton")):
            return report
        if iterations >= MAX_ITER:  # the last step's residual is tested first
            raise NoConvergence(f"no convergence in {MAX_ITER} iterations; "
                                f"best residual {best!r}", best_residual=best)
        try:
            s -= g / (1.0 - slope(s))
        except ZeroDivisionError:
            raise NoConvergence(f"singular jacobian at residual {res!r}", best_residual=best)
        iterations += 1
