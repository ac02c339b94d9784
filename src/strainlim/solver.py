"""Fixed-point solver for the implicit relation E = f_delta(E, Sbar).

Every kind is either stress-only or on a line. power_law and scaled_base
(with its built-in base) read the stress alone, so the solution is
E = f_delta(0, Sbar) in closed form: zero at 0 iterations when
|E| <= 1e-13, otherwise E at 1 iteration, whose residual
|E - f_delta(E, Sbar)| is exactly 0.0 (the second evaluation repeats the
same floats and checks that E lies in the working ball). For the density
kinds f_delta(s m, Sbar) = phi(s) m (`families.density_line`), so each fixed
point is E = s m with s = phi(s), and one loop solves that scalar relation:
Picard iteration from zero; if the residual ratio between successive
iterates exceeds 0.9, the Picard budget runs out or an iterate leaves the
domain, Newton on g(s) = s - phi(s) from Picard's best iterate, with a slope
from two phi probes and a backtracking line search. Its residual is the
six-component norm |m| |s - phi(s)|, and a solution reports
|E - f_delta(E, Sbar)| at E = s m, which must meet the tolerance too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonpositiveModulus, NoConvergence, OutOfDomain
from .families import DENSITY_KINDS, FamilySpec, density_line, family_eval, working_domain
from .symtensor import SymTensor, frobenius

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

    The closed form for a stress-only kind; for a density kind Picard from
    zero, then Newton from Picard's best iterate. Raises NoConvergence (with
    the best residual attached) or OutOfDomain when iterates cannot be kept
    inside the working ball.
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
    if spec.kind not in DENSITY_KINDS:  # stress-only: E = f_delta(0, stress)
        E = family_eval(spec, delta, SymTensor(), stress)
        res = frobenius(E)
        if res <= tol:
            return _report(spec, delta, SymTensor(), 0, res, "picard")
        res = frobenius(E - family_eval(spec, delta, E, stress))
        return _report(spec, delta, E, 1, res, "picard")

    m, phi = density_line(spec, delta, stress)
    unit = frobenius(m)
    iterations, prev = 0, 0.0  # no ratio test before the second residual

    def accept(s, method):
        """The report at E = s m, or None if it misses tol in six components."""
        E = m * s
        res = frobenius(E - family_eval(spec, delta, E, stress))
        return _report(spec, delta, E, iterations, res, method) if res <= tol else None

    s, best_s, best_res = 0.0, 0.0, math.inf
    while True:
        try:
            fs = phi(s)
        except _DOMAIN_ERRORS:
            break
        res = unit * abs(s - fs)
        if res < best_res:
            best_s, best_res = s, res
        if res <= tol and (report := accept(s, "picard")):
            return report
        if iterations >= PICARD_BUDGET or (prev > 0.0 and res / prev > RATIO_SWITCH):
            break
        s = fs
        prev = res
        iterations += 1

    # Newton on g(s) = s - phi(s); every accepted step lowers the residual, so
    # the current one is the best
    s = best_s
    while True:
        g = s - phi(s)  # domain errors at the current iterate are fatal here
        res = unit * abs(g)
        if res <= tol and (report := accept(s, "newton")):
            return report
        if iterations >= MAX_ITER:  # the last step's residual is tested first
            raise NoConvergence(
                f"no convergence in {MAX_ITER} iterations; best residual {res!r}",
                best_residual=res,
            )
        try:  # the slope step is FD_STEP max(1, |E|) in E
            h = FD_STEP * max(1.0, abs(s) * unit) / unit
            step = -g / (1.0 - (phi(s + h) - phi(s - h)) / (2.0 * h))
        except ZeroDivisionError:
            raise NoConvergence(
                f"singular jacobian at residual {res!r}", best_residual=res
            )
        t = 1.0
        domain_blocked = True
        for _ in range(MAX_HALVINGS + 1):
            trial = s + step * t
            try:
                rt = unit * abs(trial - phi(trial))
            except _DOMAIN_ERRORS:
                t *= 0.5
                continue
            domain_blocked = False
            if rt < res:
                s = trial
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
