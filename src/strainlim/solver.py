"""Fixed-point solver for the implicit relation E = f_delta(E, Sbar).

Strategy: Picard iteration from the guess (default zero). If the residual
ratio between successive iterates exceeds 0.9, or the Picard budget runs
out, switch to Newton on g(E) = E - f_delta(E, Sbar) over the six stored
components, with a central finite-difference Jacobian and a backtracking
line search. Stress-only kinds converge in exactly one Picard step with
residual exactly 0.0 (the second evaluation repeats the same floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveModulus, NoConvergence, OutOfDomain
from .families import FamilySpec, family_eval
from .symtensor import SymTensor, central_differences, frobenius

PICARD_BUDGET = 20
MAX_ITER = 200
RATIO_SWITCH = 0.9
FD_STEP = 1e-7
MAX_HALVINGS = 30

_DOMAIN_ERRORS = (OutOfDomain, NonpositiveModulus)


@dataclass(frozen=True)
class SolveReport:
    """Solution of E = f_delta(E, Sbar) reached from one guess."""

    solution: SymTensor
    iterations: int
    residual: float
    method: str
    interior_ball_ok: bool


def _vec(t: SymTensor) -> np.ndarray:
    return np.array(t.components())


def _unvec(v) -> SymTensor:
    return SymTensor(*(float(x) for x in v))


def _tol(delta: float) -> float:
    # solutions are O(delta); an absolute floor avoids demanding relative
    # accuracy below machine precision
    return 1e-13 * max(1.0, delta)


def solve_implicit(
    spec: FamilySpec,
    delta: float,
    Sbar: SymTensor,
    guess: SymTensor = None,
    method: str = "auto",
) -> SolveReport:
    """Solve E = f_delta(E, Sbar) to residual <= 1e-13 * max(1, delta).

    `method` is "auto" (Picard, falling back to Newton), or "picard" /
    "newton" to force one path. Raises NoConvergence (with the best
    residual attached) or OutOfDomain when iterates cannot be kept inside
    the working ball.
    """
    return _solve(spec, delta, Sbar, guess, method)


def solve_implicit_hencky(
    spec: FamilySpec,
    delta: float,
    T: SymTensor,
    guess: SymTensor = None,
    method: str = "auto",
) -> SolveReport:
    """Solve H = f_delta(H, T); same contract as solve_implicit."""
    return _solve(spec, delta, T, guess, method)


def _solve(spec, delta, stress, guess, method) -> SolveReport:
    if method not in ("auto", "picard", "newton"):
        raise ValueError(f"unknown method {method!r}")
    tol = _tol(delta)
    E = guess if guess is not None else SymTensor()

    def feval(x):
        return family_eval(spec, delta, x, stress)

    best_e, best_res = E, math.inf
    iterations = 0

    if method in ("auto", "picard"):
        budget = PICARD_BUDGET if method == "auto" else MAX_ITER
        prev = None
        switch = False
        while True:
            try:
                fE = feval(E)
            except _DOMAIN_ERRORS:
                if method == "picard":
                    raise
                switch = True
                E = best_e
                break
            res = frobenius(E - fE)
            if res < best_res:
                best_e, best_res = E, res
            if res <= tol:
                return _report(spec, delta, E, iterations, res, "picard")
            if iterations >= budget:
                switch = True
                break
            if prev is not None and prev > 0.0 and res / prev > RATIO_SWITCH:
                if method == "auto":
                    switch = True
                    break
            E = fE
            prev = res
            iterations += 1
        if method == "picard" or not switch:
            raise NoConvergence(
                f"picard stalled at residual {best_res!r}", best_residual=best_res
            )
        E = best_e

    # Newton on g(E) = E - f_delta(E, Sbar) over the six components
    while iterations < MAX_ITER:
        fE = feval(E)  # domain errors at the current iterate are fatal here
        g = E - fE
        res = frobenius(g)
        if res < best_res:
            best_e, best_res = E, res
        if res <= tol:
            return _report(spec, delta, E, iterations, res, "newton")
        # scalar probes: a batched (12, 6) family_eval differs in the last ulp
        # for the density kinds (numpy against libm expm1/log1p)
        h = FD_STEP * max(1.0, frobenius(E))
        jac = np.transpose(central_differences(
            lambda P: [_vec(e - feval(e)) for e in map(_unvec, P)], E, h))
        try:
            step = np.linalg.solve(jac, -_vec(g))
        except np.linalg.LinAlgError:
            raise NoConvergence(
                f"singular jacobian at residual {res!r}", best_residual=best_res
            )
        t = 1.0
        accepted = False
        domain_blocked = True
        for _ in range(MAX_HALVINGS + 1):
            trial = _unvec(_vec(E) + t * step)
            try:
                rt = frobenius(trial - feval(trial))
            except _DOMAIN_ERRORS:
                t *= 0.5
                continue
            domain_blocked = False
            if rt < res:
                E = trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if domain_blocked:
                raise OutOfDomain(
                    "newton backtracking could not keep the iterate in the domain"
                )
            raise NoConvergence(
                f"line search stalled at residual {res!r}", best_residual=best_res
            )
        iterations += 1
    raise NoConvergence(
        f"no convergence in {MAX_ITER} iterations; best residual {best_res!r}",
        best_residual=best_res,
    )


def _report(spec, delta, E, iterations, res, method) -> SolveReport:
    interior = frobenius(E) <= 0.5 * spec._working[0].strain_radius(delta)
    return SolveReport(E, iterations, res, method, interior)
