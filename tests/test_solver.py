import math

import pytest

from strainlim.errors import NoConvergence, OutOfDomain
from strainlim.families import FamilySpec, family_eval, working_domain
from strainlim.solver import solve_implicit, solve_implicit_hencky
from strainlim.symtensor import SymTensor, frobenius

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
# Picard stalls on this family at small delta, so its solves reach Newton
STIFF = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.45, a=0.9, b=0.5, c=3.0)
SBAR = SymTensor(0.5, 0.25, -0.125)
DELTA = 2.0 ** -6


def test_power_law_closes_in_one_step():
    rep = solve_implicit(POWER, DELTA, SBAR)
    assert rep.method == "picard"
    assert rep.iterations == 1
    assert rep.residual == 0.0
    assert frobenius(rep.solution - family_eval(POWER, DELTA, rep.solution, SBAR)) == 0.0


def test_zero_stress_is_free():
    rep = solve_implicit(RECIP, DELTA, SymTensor())
    assert rep.iterations == 0
    assert rep.residual == 0.0
    assert frobenius(rep.solution) == 0.0
    assert rep.interior_ball_ok


def _hydrostatic_root(spec, delta, s):
    # scalar fixed point e = (1-2nu) s / E_delta(e I), bisected on the
    # monotone residual g(e) = e - rhs(e); the modulus is the closed form
    # from det(I + 2e I) = (1 + 2e)^3
    half = -0.5 if spec.kind == "density_modulus_reciprocal" else 0.5

    def g(e):
        bracket = 1.0 + spec.a / delta * math.expm1(3.0 * half * math.log1p(2.0 * e))
        mod = spec.E0 * bracket / delta if half < 0.0 else spec.E0 / (delta * bracket)
        return e - (1.0 - 2.0 * spec.nu) * s / mod

    lo, hi = 0.0, spec.b * delta * 0.99 / math.sqrt(3.0)
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
def test_hydrostatic_solution_matches_bisection(spec):
    s = 0.5
    root = _hydrostatic_root(spec, DELTA, s)
    rep = solve_implicit(spec, DELTA, SymTensor(s, s, s))
    sol = rep.solution
    assert sol.xx == pytest.approx(root, abs=1e-12)
    assert sol.yy == pytest.approx(root, abs=1e-12)
    assert sol.zz == pytest.approx(root, abs=1e-12)
    assert abs(sol.xy) < 1e-15 and abs(sol.xz) < 1e-15 and abs(sol.yz) < 1e-15


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
def test_density_solve_meets_tolerance(spec):
    rep = solve_implicit(spec, DELTA, SBAR)
    assert rep.residual <= 1e-13 * max(1.0, DELTA)
    assert rep.method == "picard"
    assert rep.interior_ball_ok
    # the solution obeys the closed-form range bound
    cap = (1.0 + 4.0 * spec.nu) * spec.c * DELTA / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))
    assert frobenius(rep.solution) <= cap


def test_contraction_keeps_iteration_count_small():
    # Lipschitz constant in E is about 2.7 delta, so Picard needs roughly
    # log(tol / r0) / log(L) steps; generous cap well under the budget
    rep = solve_implicit(RECIP, DELTA, SBAR)
    assert rep.iterations <= 15


def test_newton_agrees_with_picard():
    # Newton reaches a fixed point that Picard, started there, accepts at once
    S = SymTensor(1.053568237520654, 1.548577327771007, -0.10633993342362029,
                  0.9575539215983894, 0.7588024235430555, 0.4856308433477228)
    newton = solve_implicit(STIFF, 2.0 ** -11, S)
    assert newton.method == "newton"
    assert newton.residual <= 1e-13
    picard = solve_implicit(STIFF, 2.0 ** -11, S, guess=newton.solution)
    assert (picard.method, picard.iterations) == ("picard", 0)
    assert picard.solution == newton.solution


def test_stalled_solve_carries_its_best_residual():
    S = SymTensor(0.45057716151826754, 1.7732717025175075, 1.418711129001391,
                  -0.4224179813496206, -0.6189389823198892, -0.17788963219188111)
    with pytest.raises(NoConvergence) as info:
        solve_implicit(STIFF, 2.0 ** -14, S)
    assert info.value.best_residual == pytest.approx(5.72e-5, rel=1e-3)


def test_guess_short_circuits():
    exact = solve_implicit(RECIP, DELTA, SBAR).solution
    rep = solve_implicit(RECIP, DELTA, SBAR, guess=exact)
    assert rep.iterations <= 1


def test_stress_outside_ball_raises():
    with pytest.raises(OutOfDomain):
        solve_implicit(POWER, DELTA, SymTensor(1.5, 0.0, 0.0))


def test_expansive_base_is_solved_by_newton():
    # a legal base (bounded by delta1) whose strain slope is ~2.5 has no
    # contracting fixed point: Picard stalls and Newton finds the solution
    d1 = 0.05

    def base(Et, S):
        return SymTensor(d1 * (0.5 + 0.5 * math.sin(100.0 * Et.xx)), 0.0, 0.0)

    spec = FamilySpec(kind="scaled_base", base=base, delta1=d1)
    S = SymTensor(0.1, 0.0, 0.0)
    rep = solve_implicit(spec, 0.01, S)
    assert rep.method == "newton"
    assert frobenius(rep.solution - family_eval(spec, 0.01, rep.solution, S)) <= 1e-13


def test_hencky_lane_same_contract():
    rep = solve_implicit_hencky(RECIP, DELTA, SBAR)
    assert rep.residual <= 1e-13
    gap = frobenius(rep.solution - family_eval(RECIP, DELTA, rep.solution, SBAR))
    assert gap <= 1e-13


def test_solution_stays_inside_working_ball():
    rep = solve_implicit(DIRECT, DELTA, SymTensor(0.4, 0.3, -0.2, 0.1, 0.0, 0.0))
    assert frobenius(rep.solution) <= working_domain(DIRECT) * DELTA
