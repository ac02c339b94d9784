"""Fixed-point solver for the implicit relation E = f_delta(E, Sbar).

Every kind is either stress-only or on a line. power_law and scaled_base
(with its built-in base) read the stress alone, so the solution is
E = f_delta(0, Sbar) in closed form: zero at 0 iterations when
|E| <= 1e-13, otherwise E at 1 iteration, whose residual
|E - f_delta(E, Sbar)| is exactly 0.0 (the second evaluation repeats the
same floats; E lies in B(0, delta), inside the working ball). For the density
kinds f_delta(s m, Sbar) = phi(s) m (`families.density_line`), so each fixed
point is E = s m with s = phi(s): Picard iteration from zero, then, if its
budget runs out or an iterate leaves the domain, Newton on g(s) = s - phi(s)
with full steps and a slope from two phi probes, from the smallest root that
`families.fixed_points` locates in the working ball (with none there,
NoConvergence names the nearest root beyond it as |E|/delta). The residual
|m| |s - phi(s)| and |E - f_delta(E, Sbar)| at E = s m both meet 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonpositiveModulus, NoConvergence, OutOfDomain
from .families import (DENSITY_KINDS, FamilySpec, density_line, family_eval, fixed_points,
                        working_domain)
from .symtensor import SymTensor, frobenius

PICARD_BUDGET = 20
MAX_ITER = 200
FD_STEP = 1e-7


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

    Raises InvalidParameter for a batch (as `fixed_points` does), NoConvergence,
    with the best residual attached, when the working ball holds no fixed point
    or Newton fails, and OutOfDomain when a Newton iterate leaves that ball.
    """
    return _solve(spec, delta, Sbar)


def solve_implicit_hencky(spec: FamilySpec, delta: float, T: SymTensor) -> SolveReport:
    """Solve H = f_delta(H, T); same contract as solve_implicit."""
    return _solve(spec, delta, T)


def _solve(spec, delta, stress) -> SolveReport:
    if not (isinstance(stress, SymTensor) and (type(delta) is float or np.isscalar(delta))) or any(
            map(isinstance, stress.components(), (np.ndarray,) * 6)):  # numpy columns: a batch
        raise InvalidParameter("the solvers take one delta and one stress tensor, not a batch")
    # solutions are O(delta) with delta < 1 (density_line or the first
    # family_eval checks it): an absolute tolerance avoids demanding relative
    # accuracy below machine precision
    tol = 1e-13
    if spec.kind not in DENSITY_KINDS:  # stress-only: E = f_delta(0, stress)
        E = family_eval(spec, delta, SymTensor(), stress)
        res = frobenius(E)
        if res <= tol:
            return _report(spec, delta, SymTensor(), 0, res, "picard")
        res = frobenius(E - family_eval(spec, delta, E, stress))
        return _report(spec, delta, E, 1, res, "picard")

    m, phi = density_line(spec, delta, stress)
    unit = frobenius(m)

    def accept(s, method):
        """The report at E = s m, or None if it misses tol in six components."""
        E = m * s
        res = frobenius(E - family_eval(spec, delta, E, stress))
        return _report(spec, delta, E, iterations, res, method) if res <= tol else None

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
        try:  # the slope step is FD_STEP max(1, |E|) in E
            h = FD_STEP * max(1.0, abs(s) * unit) / unit
            s -= g / (1.0 - (phi(s + h) - phi(s - h)) / (2.0 * h))
        except ZeroDivisionError:
            raise NoConvergence(f"singular jacobian at residual {res!r}", best_residual=best)
        iterations += 1


def _report(spec, delta, E, iterations, res, method) -> SolveReport:
    interior = frobenius(E) <= 0.5 * (working_domain(spec) * delta)
    return SolveReport(E, iterations, res, method, interior)
