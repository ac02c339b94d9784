import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strainlim.solver
from strainlim.analysis import ball_points
from strainlim.errors import NoConvergence, OutOfDomain
from strainlim.families import (
    FamilySpec,
    delta_ceiling,
    density_line,
    family_eval,
    working_domain,
)
from strainlim.solver import solve_implicit, solve_implicit_hencky
from strainlim.symtensor import SymTensor, frobenius

from draws import rotation

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
# Picard stalls on this family at small delta, so its solves reach Newton
STIFF = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.45, a=0.9, b=0.5, c=3.0)
SBAR = SymTensor(0.5, 0.25, -0.125)
DELTA = 2.0 ** -6
# STIFF at delta = 2^-11 reaches Newton
NEWTON_S = SymTensor(1.053568237520654, 1.548577327771007, -0.10633993342362029,
                     0.9575539215983894, 0.7588024235430555, 0.4856308433477228)


def test_power_law_closes_in_one_step():
    rep = solve_implicit(POWER, DELTA, SBAR)
    assert rep.method == "picard"
    assert rep.iterations == 1
    assert rep.residual == 0.0
    assert frobenius(rep.solution - family_eval(POWER, DELTA, rep.solution, SBAR)) == 0.0


def test_a_stress_only_solution_within_the_tolerance_is_zero():
    S = SymTensor(1e-12)
    for spec in (POWER, FamilySpec(kind="scaled_base", base="power_law")):
        E = family_eval(spec, DELTA, SymTensor(), S)
        assert 0.0 < frobenius(E) <= 1e-13
        rep = solve_implicit(spec, DELTA, S)
        assert (rep.solution, rep.iterations, rep.method) == (SymTensor(), 0, "picard")
        assert rep.residual == frobenius(E)


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
    # Newton reaches a fixed point that Picard's own test accepts at once:
    # |E - f_delta(E)| meets the tolerance in six components
    newton = solve_implicit(STIFF, 2.0 ** -11, NEWTON_S)
    assert newton.method == "newton"
    assert newton.residual <= 1e-13
    E = newton.solution
    assert frobenius(E - family_eval(STIFF, 2.0 ** -11, E, NEWTON_S)) <= 1e-13


def test_stalled_solve_carries_its_best_residual(monkeypatch):
    S = SymTensor(0.45057716151826754, 1.7732717025175075, 1.418711129001391,
                  -0.4224179813496206, -0.6189389823198892, -0.17788963219188111)
    calls = []

    def counted(*args):
        calls.append(args)
        return family_eval(*args)

    monkeypatch.setattr(strainlim.solver, "family_eval", counted)
    with pytest.raises(NoConvergence) as info:
        solve_implicit(STIFF, 2.0 ** -14, S)
    assert info.value.best_residual == pytest.approx(5.72e-5, rel=1e-3)
    # the density kinds iterate on the line s m through phi; family_eval only
    # checks an accepted solution
    assert len(calls) <= 2


def test_a_line_solution_meets_the_tolerance_in_six_components(monkeypatch):
    # a line point whose scalar residual passes is returned only if
    # |E - f(E)| at E = s m passes too; here it never does
    shifted = lambda *args: family_eval(*args) + SymTensor(2e-13)
    monkeypatch.setattr(strainlim.solver, "family_eval", shifted)
    with pytest.raises(NoConvergence):
        solve_implicit(RECIP, DELTA, SBAR)


def test_singular_slope_is_no_convergence(monkeypatch):
    # no family has phi' = 1 exactly, so a stand-in line gives it: phi(s) = s + 1
    # has no fixed point, Picard's ratio is 1, and with |m| = 1e-7 the Newton
    # probes sit at s = +-1, where the difference quotient is exactly 1
    monkeypatch.setattr(strainlim.solver, "density_line",
                        lambda spec, delta, S: (SymTensor(1e-7), lambda s: s + 1.0))
    with pytest.raises(NoConvergence, match="singular") as info:
        solve_implicit(RECIP, DELTA, SBAR)
    assert info.value.best_residual == 1e-7


def test_backtracking_that_leaves_the_domain_is_out_of_domain(monkeypatch):
    # a stand-in line defined only for |s| <= 2e-7: with |m| = 1 the Newton
    # probes at s = +-1e-7 are inside, but every trial of the step 1000, down to
    # 1000 / 2^30, is not
    def phi(s):
        if abs(s) > 2e-7:
            raise OutOfDomain("outside the stand-in line")
        return 1000.0

    monkeypatch.setattr(strainlim.solver, "density_line",
                        lambda spec, delta, S: (SymTensor(1.0), phi))
    with pytest.raises(OutOfDomain, match="backtracking"):
        solve_implicit(RECIP, DELTA, SBAR)


def test_iteration_budget_is_no_convergence(monkeypatch):
    # NEWTON_S stalls Picard through its 20-step budget and Newton's first step
    # meets the tolerance; no family needs 200 steps, so the budget is lowered
    monkeypatch.setattr(strainlim.solver, "MAX_ITER", strainlim.solver.PICARD_BUDGET)
    with pytest.raises(NoConvergence, match="20 iterations") as info:
        solve_implicit(STIFF, 2.0 ** -11, NEWTON_S)
    assert info.value.best_residual == pytest.approx(1.159e-10, rel=1e-3)
    # the residual of the last allowed step is tested before the budget ends
    monkeypatch.setattr(strainlim.solver, "MAX_ITER", strainlim.solver.PICARD_BUDGET + 1)
    rep = solve_implicit(STIFF, 2.0 ** -11, NEWTON_S)
    assert (rep.method, rep.iterations) == ("newton", 21)


@pytest.mark.parametrize("solve", [solve_implicit, solve_implicit_hencky])
@pytest.mark.parametrize("spec, delta, S", [(RECIP, DELTA, SBAR), (DIRECT, DELTA, SBAR),
                                            (STIFF, 2.0 ** -11, NEWTON_S)],
                         ids=["reciprocal", "direct", "newton"])
def test_density_solutions_are_exactly_s_times_m(solve, spec, delta, S):
    m, _ = density_line(spec, delta, S)
    E = solve(spec, delta, S).solution
    k = max(range(6), key=lambda i: abs(m.components()[i]))
    s = E.components()[k] / m.components()[k]
    near = [s]
    for direction in (math.inf, -math.inf):
        t = s
        for _ in range(2):  # the quotient is within two ulps of the factor
            t = math.nextafter(t, direction)
            near.append(t)
    assert any(m * t == E for t in near)


def test_stress_outside_ball_raises():
    with pytest.raises(OutOfDomain):
        solve_implicit(POWER, DELTA, SymTensor(1.5, 0.0, 0.0))


def test_stress_only_solution_outside_the_working_ball_raises():
    # delta1 = 0.05 and b = 0.01 give a working ball of radius 0.2 delta, which
    # f_delta(0, S) leaves; the error names that norm, the closed-form solution's
    S = SymTensor(0.5, 0.25, -0.125, 0.1, 0.0, 0.0)
    spec = FamilySpec(kind="scaled_base", base="power_law", a=1.0, b=0.01)
    E = family_eval(spec, 1e-3, SymTensor(), S)
    assert frobenius(E) == pytest.approx(5.08e-4, rel=1e-3)
    with pytest.raises(OutOfDomain, match=r"\|E\| = %r exceeds" % frobenius(E)):
        solve_implicit(spec, 1e-3, S)


def test_hencky_lane_same_contract():
    rep = solve_implicit_hencky(RECIP, DELTA, SBAR)
    assert rep.residual <= 1e-13
    gap = frobenius(rep.solution - family_eval(RECIP, DELTA, rep.solution, SBAR))
    assert gap <= 1e-13


def test_solution_stays_inside_working_ball():
    rep = solve_implicit(DIRECT, DELTA, SymTensor(0.4, 0.3, -0.2, 0.1, 0.0, 0.0))
    assert frobenius(rep.solution) <= working_domain(DIRECT) * DELTA


def _turn(Q, A):
    return SymTensor.from_matrix(Q @ A.as_matrix() @ Q.T)


EQUIVARIANT_SPECS = {
    "power_law": POWER,
    "reciprocal": RECIP,
    "direct": DIRECT,
    "scaled_base": FamilySpec(kind="scaled_base", base="power_law", delta1=0.05),
}


@pytest.mark.parametrize("solve", [solve_implicit, solve_implicit_hencky])
@pytest.mark.parametrize("name", sorted(EQUIVARIANT_SPECS))
@settings(max_examples=15, deadline=None)
@given(
    q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    seed=st.integers(0, 2 ** 32 - 1),
    frac=st.floats(0.01, 0.99),
)
def test_solutions_are_frame_equivariant(solve, name, q, seed, frac):
    # every kind is isotropic, so solve(Q S Q^T) = Q solve(S) Q^T. Each solution
    # is within tol / (1 - L) of the fixed point, tol = 1e-13 the residual
    # tolerance and L < 1/2 the strain Lipschitz constant of these families
    spec, Q = EQUIVARIANT_SPECS[name], rotation(q)
    delta = frac * delta_ceiling(spec)
    rng = np.random.default_rng(seed)
    # 0.9 of the ball: turning a stress moves its norm by rounding alone
    S = SymTensor(*ball_points(rng.standard_normal(6), rng.random(), 0.9 * spec.c).tolist())
    want = _turn(Q, solve(spec, delta, S).solution)
    assert frobenius(solve(spec, delta, _turn(Q, S)).solution - want) <= 4e-13
