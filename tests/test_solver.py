import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strainlim.families
import strainlim.solver
from strainlim.analysis import ball_points
from strainlim.errors import InvalidParameter, NonpositiveModulus, NoConvergence, OutOfDomain
from strainlim.families import (
    FamilySpec,
    delta_ceiling,
    density_line,
    family_eval,
    working_domain,
)
from strainlim.solver import solve_implicit, solve_implicit_hencky
from strainlim.symtensor import SymTensor, frobenius

from draws import hydrostatic_root, rotation

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
SCALED = FamilySpec(kind="scaled_base", base="power_law")
# Picard stalls on this family at small delta, so its solves reach Newton
STIFF = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.45, a=0.9, b=0.5, c=3.0)
SBAR = SymTensor(0.5, 0.25, -0.125)
DELTA = 2.0 ** -6
# STIFF at delta = 2^-11 reaches Newton
NEWTON_S = SymTensor(1.053568237520654, 1.548577327771007, -0.10633993342362029,
                     0.9575539215983894, 0.7588024235430555, 0.4856308433477228)


@pytest.mark.parametrize("spec", [POWER, SCALED], ids=["power_law", "scaled_base"])
def test_power_law_closes_in_one_step(spec):
    # a stress-only line has phi = 1: Picard reaches m = f_delta(0, S) at its first step
    rng = np.random.default_rng(5)
    for _ in range(200):
        delta = rng.uniform(1e-6, 1.0) * delta_ceiling(spec)
        S = SymTensor(*ball_points(rng.standard_normal(6), rng.random(), spec.c).tolist())
        rep = solve_implicit(spec, delta, S)
        assert (rep.method, rep.iterations, rep.residual) == ("picard", 1, 0.0)
        want = family_eval(spec, delta, SymTensor(), S)
        assert [x.hex() for x in rep.solution.components()] == [
            x.hex() for x in want.components()]
        assert frobenius(rep.solution - family_eval(spec, delta, rep.solution, S)) == 0.0


@pytest.mark.parametrize("S", [SymTensor(1e-12), SymTensor(-1e-12, 0.0, 0.0, 2e-14)],
                         ids=["positive", "negative"])
def test_a_stress_only_solution_within_the_tolerance_is_zero(S):
    for spec in (POWER, SCALED):
        E = family_eval(spec, DELTA, SymTensor(), S)
        assert 0.0 < frobenius(E) <= 1e-13
        rep = solve_implicit(spec, DELTA, S)
        assert (rep.solution, rep.iterations, rep.method) == (SymTensor(), 0, "picard")
        # the zero is m * 0.0, signed as m is
        assert [math.copysign(1.0, x) for x in rep.solution.components()] == [
            math.copysign(1.0, x) for x in E.components()]
        assert rep.residual == frobenius(E)


@pytest.mark.parametrize("spec", [POWER, SCALED, RECIP, DIRECT],
                         ids=["power_law", "scaled_base", "reciprocal", "direct"])
def test_a_picard_solve_gates_once(monkeypatch, spec):
    # density_line is the solve's one gate; the solver imports no gate of its own
    gate, calls = strainlim.families.check_single, []

    def counted(*args):
        calls.append(args)
        return gate(*args)

    for module in (strainlim.families, strainlim.solver):
        monkeypatch.setattr(module, "check_single", counted, raising=False)
    assert solve_implicit(spec, DELTA, SBAR).method == "picard"
    assert len(calls) == 1


def test_zero_stress_is_free():
    rep = solve_implicit(RECIP, DELTA, SymTensor())
    assert rep.iterations == 0
    assert rep.residual == 0.0
    assert frobenius(rep.solution) == 0.0
    assert rep.interior_ball_ok


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
def test_hydrostatic_solution_matches_bisection(spec):
    s = 0.5
    root = hydrostatic_root(spec, DELTA, s)
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
    # no fixed point of this stiff rung lies in the working ball: the error names
    # the nearest one beyond it and carries Picard's best residual
    S = SymTensor(0.45057716151826754, 1.7732717025175075, 1.418711129001391,
                  -0.4224179813496206, -0.6189389823198892, -0.17788963219188111)
    delta = 2.0 ** -14
    m, phi, _ = density_line(STIFF, delta, S)
    s, picard = 0.0, []
    with pytest.raises(NonpositiveModulus):  # Picard leaves the domain within its budget
        for _ in range(strainlim.solver.PICARD_BUDGET + 1):
            s, fs = phi(s), s
            picard.append(frobenius(m) * abs(s - fs))
    calls = []

    def counted(*args):
        calls.append(args)
        return family_eval(*args)

    monkeypatch.setattr(strainlim.solver, "family_eval", counted)
    with pytest.raises(NoConvergence, match=r"no fixed point in the working ball \(nearest at "
                       r"\|E\|/delta = 2616\.8") as info:
        solve_implicit(STIFF, delta, S)
    assert info.value.best_residual == min(picard)
    # the density kinds iterate on the line s m through phi; family_eval only
    # checks an accepted solution
    assert calls == []


def test_a_line_solution_meets_the_tolerance_in_six_components(monkeypatch):
    # a line point whose scalar residual passes is returned only if
    # |E - f(E)| at E = s m passes too; here it never does
    shifted = lambda *args: family_eval(*args) + SymTensor(2e-13)
    monkeypatch.setattr(strainlim.solver, "family_eval", shifted)
    with pytest.raises(NoConvergence):
        solve_implicit(RECIP, DELTA, SBAR)


def test_singular_slope_is_no_convergence(monkeypatch):
    # no family has phi' = 1 exactly, so a stand-in line gives it: phi(s) = s + 1
    # has no fixed point, Picard's ratio is 1, and Newton's step divides by 1 - phi'
    monkeypatch.setattr(strainlim.solver, "density_line",
                        lambda spec, delta, S: (SymTensor(1e-7), lambda s: s + 1.0, lambda s: 1.0))
    with pytest.raises(NoConvergence, match="singular") as info:
        solve_implicit(RECIP, DELTA, SBAR)
    assert info.value.best_residual == 1e-7


def test_iteration_budget_is_no_convergence(monkeypatch):
    # NEWTON_S stalls Picard through its 20-step budget, and Newton seeded one
    # part in 1e6 above the census root needs one step; no family needs 200
    # steps, so the budget is lowered
    census = strainlim.solver.fixed_points
    monkeypatch.setattr(strainlim.solver, "fixed_points",
                        lambda *args: ([census(*args)[0][0] * (1.0 + 1e-6)], None))
    monkeypatch.setattr(strainlim.solver, "MAX_ITER", strainlim.solver.PICARD_BUDGET)
    with pytest.raises(NoConvergence, match="20 iterations") as info:
        solve_implicit(STIFF, 2.0 ** -11, NEWTON_S)
    assert info.value.best_residual == pytest.approx(1.159e-10, rel=1e-3)
    # the residual of the last allowed step is tested before the budget ends
    monkeypatch.setattr(strainlim.solver, "MAX_ITER", strainlim.solver.PICARD_BUDGET + 1)
    rep = solve_implicit(STIFF, 2.0 ** -11, NEWTON_S)
    assert (rep.method, rep.iterations) == ("newton", 21)


def test_a_stiff_rung_with_a_root_in_the_ball_solves():
    # seed-401 converge study 117 at delta = 2^-9: Picard stalls, and the census
    # root at |E|/delta = 45.72, inside the working radius of 88.2, seeds Newton
    S = SymTensor(0.5470311688506825, 1.2603398160682382, 1.356760637728338,
                  -0.0019578570272070794, -0.7652480848042948, -1.0883903859319886)
    rep = solve_implicit(STIFF, 2.0 ** -9, S)
    assert rep.method == "newton"
    assert rep.residual <= 1e-13
    assert frobenius(rep.solution) / 2.0 ** -9 == pytest.approx(45.72, abs=0.01)


@pytest.mark.parametrize("solve", [solve_implicit, solve_implicit_hencky])
@pytest.mark.parametrize("spec, delta, S", [(RECIP, DELTA, SBAR), (DIRECT, DELTA, SBAR),
                                            (STIFF, 2.0 ** -11, NEWTON_S)],
                         ids=["reciprocal", "direct", "newton"])
def test_density_solutions_are_exactly_s_times_m(solve, spec, delta, S):
    m, _, _ = density_line(spec, delta, S)
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


# a batch: an (N, 6) stress array, a SymTensor of (N,) columns, an (N,) delta column,
# and a 0-d delta array, which family_eval refuses as no (N,) column
_BATCHES = {"(N, 6)": (DELTA, np.tile(SBAR.components(), (3, 1))),
            "columns": (DELTA, SymTensor(*np.tile(SBAR.components(), (3, 1)).T)),
            "one column": (DELTA, SymTensor(np.full(3, 0.5), 0.25, -0.125)),
            "delta column": (np.full(3, DELTA), SBAR),
            "0-d delta": (np.array(DELTA), SBAR)}


@pytest.mark.parametrize("solve", [solve_implicit, solve_implicit_hencky])
@pytest.mark.parametrize("spec", [POWER, RECIP, DIRECT], ids=["power_law", "reciprocal", "direct"])
@pytest.mark.parametrize("batch", _BATCHES)
def test_a_batch_is_an_invalid_parameter(solve, spec, batch):
    # the solvers take one delta and one tensor, as the census does
    with pytest.raises(InvalidParameter, match="not a batch"):
        solve(spec, *_BATCHES[batch])


def test_stress_outside_ball_raises():
    with pytest.raises(OutOfDomain):
        solve_implicit(POWER, DELTA, SymTensor(1.5, 0.0, 0.0))


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
    "scaled_base": SCALED,
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
