import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainlim import analysis, families
from strainlim.analysis import (
    PROBE_SCALE,
    ball_points,
    certify_constants,
    fit_order,
    run_convergence,
    run_convergence_hencky,
)
from strainlim.errors import (
    FitUnderdetermined,
    InadmissibleDelta,
    InvalidAxis,
    InvalidParameter,
    NotPositiveDefinite,
    OutOfDomain,
    StrainLimError,
)
from strainlim.families import (FamilySpec, certified_domain, delta_ceiling, family_eval,
                                family_leading, leading_gap)
from strainlim.kinematics import (RotationSpec, deformation_from_green, deformation_from_hencky,
                                  make_rotation, sigma_from_cauchy, sigma_from_piola)
from strainlim.solver import solve_implicit, solve_implicit_hencky
from strainlim.symtensor import SymTensor, frobenius

from draws import rotation

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
SBAR = SymTensor(0.5, 0.25, -0.125)
AXIS = (1.0 / math.sqrt(3.0),) * 3
ROT = RotationSpec(axis=AXIS, magnitude_coefficient=1.0)
LADDER = [2.0 ** -k for k in range(6, 14)]


# --- order fitting ----------------------------------------------------------


def test_fit_order_recovers_pure_powers():
    ds = [0.1 * 2.0 ** -k for k in range(6)]
    assert fit_order(ds, [d * d for d in ds]) == pytest.approx(2.0, abs=1e-10)
    assert fit_order(ds, [3.0 * d for d in ds]) == pytest.approx(1.0, abs=1e-10)


def test_fit_order_tolerates_modulation():
    ds = [0.1 * 2.0 ** -k for k in range(8)]
    rs = [d * d * (1.0 + 0.1 * math.sin(math.log(d))) for d in ds]
    assert 1.8 <= fit_order(ds, rs) <= 2.2


def test_fit_order_skips_exact_zeros():
    ds = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    rs = [d * d for d in ds]
    rs[2] = 0.0
    assert fit_order(ds, rs) == pytest.approx(2.0, abs=1e-10)


def test_fit_order_reads_any_iterable():
    # as run_convergence and certify_constants do; the lengths compare after the reads
    ds = [1.0, 0.5, 0.25, 0.125]
    want = fit_order(ds, [d * d for d in ds])
    assert fit_order(iter(ds), (d * d for d in ds)) == want == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(InvalidParameter):
        fit_order(iter(ds), iter([1.0, 2.0]))


def test_fit_order_validation():
    ds = [0.1, 0.05, 0.025, 0.0125]
    with pytest.raises(ValueError):
        fit_order(ds, [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_order(ds, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(FitUnderdetermined):
        fit_order([0.1, 0.05, 0.025], [1.0, 1.0, 1.0])
    ds5 = ds + [0.00625]
    for bad in (math.nan, math.inf):
        # a non-finite row is an error, not a row the fit may silently drop
        with pytest.raises(InvalidParameter):
            fit_order(ds5, [1e-2, bad, 6.25e-4, 1.5625e-4, 3.90625e-5])
    # every residual exactly zero: the identity holds, there is no order
    assert fit_order(ds, [0.0] * 4) is None
    with pytest.raises(FitUnderdetermined):
        fit_order(ds, [0.1, 0.0, 0.0, 0.01])


@settings(max_examples=300, deadline=None)
@given(first=st.floats(1e-6, 0.5), ratio=st.floats(0.25, 0.75), order=st.floats(0.5, 4.0),
       scale=st.floats(0.01, 100.0),
       wobble=st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=12))
def test_closed_form_fit_agrees_with_polyfit(first, ratio, order, scale, wobble):
    # np.polyfit, the least squares the closed form replaced, is the oracle
    ds = [first * ratio ** k for k in range(len(wobble))]
    rs = [scale * d ** order * (1.0 + w) for d, w in zip(ds, wobble)]
    want = float(np.polyfit(np.log(ds), np.log(rs), 1)[0])
    assert fit_order(ds, rs) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("ds, rs", [
    ([0.1] * 4, [1.0, 2.0, 3.0, 4.0]),
    ([1e300] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]),
    # the one other delta sits on a zero residual, whose row the fit drops
    ([0.1, 0.1, 0.05, 0.1, 0.1], [1.0, 2.0, 0.0, 4.0, 8.0]),
])
def test_fit_order_needs_two_distinct_deltas(ds, rs):
    # every usable row on one vertical line: there is no slope
    with pytest.raises(FitUnderdetermined):
        fit_order(ds, rs)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -0.025, 0.0])
def test_order_fits_reject_a_delta_that_is_not_finite_and_positive(bad):
    ds = [0.1, 0.05, bad, 0.0125, 0.00625]
    rs = [1e-2, 2.5e-3, 6.25e-4, 1.5625e-4, 3.90625e-5]
    with pytest.raises(InvalidParameter):
        fit_order(ds, rs)


# --- convergence studies ----------------------------------------------------


def test_ladder_validation():
    with pytest.raises(FitUnderdetermined):
        run_convergence(POWER, SBAR, ROT, [0.01, 0.005, 0.0025])
    with pytest.raises(ValueError):
        run_convergence(POWER, SBAR, ROT, [0.01, 0.02, 0.005, 0.0025])
    with pytest.raises(InadmissibleDelta):
        run_convergence(POWER, SBAR, ROT, [0.5, 0.25, 0.01, 0.005])
    # one OutOfDomain up front, NaN included, not one failure per rung
    for route in (run_convergence, run_convergence_hencky):
        for bad in (2.0, math.nan, math.inf):
            with pytest.raises(OutOfDomain, match="exceeds"):
                route(POWER, SymTensor(bad, 0.0, 0.0), ROT, [0.01, 0.005, 0.0025, 0.00125])
    # a rotation that no rung could build cannot reach a ladder: building it raises
    for args, error in (((AXIS, -1.0), InvalidParameter), ((AXIS, math.inf), InvalidParameter),
                        (((1.0, 1.0, 0.0), 1.0), InvalidAxis)):
        with pytest.raises(error):
            RotationSpec(*args)


def test_a_ladder_that_loses_its_rungs_names_each_failure():
    # no rung of this stiff study has a fixed point in its working ball, so each
    # failure is recorded and the fit refuses with all of them in its message
    stiff = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.45, a=0.9, c=3.0)
    S = SymTensor(0.45057716151826754, 1.7732717025175075, 1.418711129001391,
                  -0.4224179813496206, -0.6189389823198892, -0.17788963219188111)
    with pytest.raises(FitUnderdetermined, match="only 0 successful rows") as info:
        run_convergence(stiff, S, ROT, [2.0 ** -k for k in range(11, 15)])
    assert str(info.value).count("NoConvergence: no fixed point in the working ball") == 4


def test_green_convergence_power_law():
    rep = run_convergence(POWER, SBAR, ROT, LADDER)
    assert not rep.failures
    assert 1.9 <= rep.fitted_order_full <= 2.1
    assert 0.9 <= rep.fitted_order_stress <= 1.1
    # refinement is monotone
    rf = [r.residual_full for r in rep.records]
    assert all(a > b for a, b in zip(rf, rf[1:]))
    # strain measures collapse quadratically too
    sg = fit_order([r.delta for r in rep.records], [r.strain_gap for r in rep.records])
    assert 1.9 <= sg <= 2.1


def test_green_convergence_density():
    rep = run_convergence(RECIP, SBAR, ROT, LADDER)
    assert not rep.failures
    assert 1.9 <= rep.fitted_order_full <= 2.1
    assert 1.9 <= rep.fitted_order_leading <= 2.1
    assert 0.9 <= rep.fitted_order_stress <= 1.1


def test_power_leading_residual_is_bit_equal_to_full():
    rep = run_convergence(POWER, SBAR, ROT, LADDER)
    for r in rep.records:
        assert r.residual_leading == r.residual_full


def test_hencky_all_zero_study_succeeds():
    still = RotationSpec(axis=AXIS, magnitude_coefficient=0.0)
    rep = run_convergence_hencky(POWER, SymTensor(), still, LADDER[:4])
    assert rep.fitted_order_full is None
    assert rep.fitted_order_stress is None
    for r in rep.records:
        assert r.residual_full == 0.0
        assert r.stress_gap == 0.0
        assert r.delta0 == 0.0


def test_deformation_stays_first_order_in_delta():
    # |F - I| <= [(3 + 2 sqrt(3) C0 d)^{1/2} C2 + (1 - 2 C0 d)^{-1/2} C0] d,
    # checked per row with the sampled (hence smaller) C0
    cert = certify_constants(POWER, LADDER[:4], 1000, 0)
    rep = run_convergence(POWER, SBAR, ROT, LADDER[:4])
    c0, c2 = cert.C0_hat, ROT.magnitude_coefficient
    for r in rep.records:
        cap = (
            math.sqrt(3.0 + 2.0 * math.sqrt(3.0) * c0 * r.delta) * c2
            + (1.0 - 2.0 * c0 * r.delta) ** -0.5 * c0
        ) * r.delta
        assert r.delta0 <= cap


def _turned(Q, S):
    # Q S Q^T read entry by entry, so a slip in SymTensor.from_matrix cannot
    # hide in the turned input
    M = (Q @ S.as_matrix() @ Q.T).tolist()
    return SymTensor(M[0][0], M[1][1], M[2][2], M[0][1], M[0][2], M[1][2])


FRAME_SPECS = {"power_law": POWER, "reciprocal": RECIP,
               "direct": FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, c=1.0)}
COLUMNS = ("delta0", "residual_full", "residual_leading", "stress_gap", "strain_gap")


@pytest.mark.parametrize("route", [run_convergence, run_convergence_hencky])
@pytest.mark.parametrize("name", sorted(FRAME_SPECS))
@settings(max_examples=10, deadline=None)
@given(
    q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    seed=st.integers(0, 2 ** 32 - 1),
    frac=st.floats(0.01, 0.99),
    coefficient=st.floats(0.0, 2.0),
)
def test_convergence_columns_are_frame_indifferent(route, name, q, seed, frac, coefficient):
    # turning the stress and the rotation axis by Q turns F, eps and sigma by Q,
    # so no column, a Frobenius norm, moves. Each solve is within tol / (1 - L)
    # of the fixed point (tol = 1e-13, strain Lipschitz constant L < 1/2), so
    # the turned solutions differ by at most 4e-13. F = R (I + 2E)^(1/2) or
    # e^H R follows the solution at a slope near 1 for these O(delta) strains,
    # and eps, sigma = sym(F S) and f_delta follow F at slopes below 1 + c = 2:
    # a factor of 5 covers both, so a column moves by at most 5 * 4e-13 = 2e-12
    spec, Q = FRAME_SPECS[name], rotation(q)
    rng = np.random.default_rng(seed)
    S = SymTensor(*ball_points(rng.standard_normal(6), rng.random(), 0.9 * spec.c).tolist())
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    deltas = [frac * delta_ceiling(spec) * 0.5 ** k for k in range(4)]
    plain = route(spec, S, RotationSpec(tuple(axis.tolist()), coefficient), deltas)
    turned = route(spec, _turned(Q, S), RotationSpec(tuple((Q @ axis).tolist()), coefficient),
                   deltas)
    assert not plain.failures and not turned.failures
    for a, b in zip(plain.records, turned.records, strict=True):
        for column in COLUMNS:
            assert abs(getattr(a, column) - getattr(b, column)) <= 2e-12, column


def _ladder_rung_by_rung(spec, stress, rot, deltas, hencky):
    # the per-rung definition of a ladder: each rung solved, deformed and
    # pushed forward alone, its failure recorded where it happens
    solve, deform, pushforward = (
        (solve_implicit_hencky, deformation_from_hencky, sigma_from_cauchy) if hencky
        else (solve_implicit, deformation_from_green, sigma_from_piola))
    records, failures = [], []
    for delta in deltas:
        try:
            E = solve(spec, delta, stress).solution
            state = deform(E, make_rotation(rot, delta))
            sigma = pushforward(state.F, stress)
            eps = state.eps
            leading = family_leading(spec, eps * (1.0 / delta), sigma) * delta
            records.append((delta, state.delta0,
                            frobenius(eps - family_eval(spec, delta, eps, sigma)),
                            frobenius(eps - leading), frobenius(sigma - stress), frobenius(E - eps)))
        except StrainLimError as exc:
            failures.append((delta, f"{type(exc).__name__}: {exc}"))
    return records, failures


STIFF = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.45, a=0.9, c=3.0)
# a stiff study whose two smallest rungs fail to solve (converge seed 401)
STIFF_STUDY = (STIFF, SymTensor(0.7626275773893632, 1.1522417889454735, 0.8753547746127116,
                                0.22855146853842637, -1.1575723771964543, -0.9543604642923954),
               RotationSpec((0.051047227134707614, -0.2192018094038553, 0.9743432389850784),
                            1.2463648936266811), [2.0 ** -k for k in range(8, 16)])
LADDER_STUDIES = {name: (spec, SBAR, ROT, LADDER) for name, spec in (
    ("scaled_base", FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law")),
    *FRAME_SPECS.items())}
LADDER_STUDIES["stiff"] = STIFF_STUDY


@pytest.mark.parametrize("hencky", [False, True])
@pytest.mark.parametrize("name", sorted(LADDER_STUDIES))
def test_a_ladder_equals_its_rung_by_rung_definition(name, hencky):
    spec, stress, rot, deltas = LADDER_STUDIES[name]
    rep = (run_convergence_hencky if hencky else run_convergence)(spec, stress, rot, deltas)
    records, failures = _ladder_rung_by_rung(spec, stress, rot, deltas, hencky)
    got = [tuple(getattr(r, f.name) for f in dataclasses.fields(r)) for r in rep.records]
    assert [[x.hex() for x in r] for r in got] == [[x.hex() for x in r] for r in records]
    assert list(rep.failures) == failures
    assert bool(failures) == (name == "stiff")


def test_a_rung_whose_kinematics_fail_keeps_its_own_failure(monkeypatch):
    # one rung's "solution" has I + 2E indefinite: the ladder's one batched
    # deformation call raises, so each solved rung is rebuilt alone
    broken, bad_delta = SymTensor(-0.6, 0.0, 0.0), LADDER[3]
    plain = run_convergence(RECIP, SBAR, ROT, LADDER)
    solve, deform, calls = analysis.solve_implicit, analysis.deformation_from_green, []

    def patched_solve(spec, delta, stress):
        rep = solve(spec, delta, stress)
        return dataclasses.replace(rep, solution=broken) if delta == bad_delta else rep

    monkeypatch.setattr(analysis, "solve_implicit", patched_solve)
    monkeypatch.setattr(analysis, "deformation_from_green",
                        lambda E, R: calls.append(E) or deform(E, R))
    rep = run_convergence(RECIP, SBAR, ROT, LADDER)
    with pytest.raises(NotPositiveDefinite) as alone:
        deformation_from_green(broken, make_rotation(ROT, bad_delta))
    assert rep.failures == ((bad_delta, f"NotPositiveDefinite: {alone.value}"),)
    assert rep.records == tuple(r for r in plain.records if r.delta != bad_delta)
    assert len(calls) == 1 + len(LADDER)  # the batch, then each rung alone


# --- certification ----------------------------------------------------------


def test_ball_point_moments_and_radius():
    rng = np.random.default_rng(101)
    radius = 0.7
    draws = [(rng.standard_normal(6), rng.random()) for _ in range(20000)]
    pts = ball_points(np.array([g for g, _ in draws]), np.array([u for _, u in draws]), radius)
    assert pts.shape == (20000, 6)
    r = frobenius(pts)
    assert np.all(r <= radius * (1.0 + 1e-12))
    ratios = r / radius
    assert abs(ratios.mean() - 6.0 / 7.0) < 0.005
    assert abs((ratios ** 2).mean() - 0.75) < 0.005


def test_zero_draw_points_along_xx():
    # an all-zero normal draw has no direction, so its point goes along +xx
    gauss = np.array([[0.0] * 6, [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
    assert ball_points(gauss, np.ones(2), 0.7).tolist() == [[0.7, 0.0, 0.0, 0.0, 0.0, 0.0],
                                                            [0.0, 0.7, 0.0, 0.0, 0.0, 0.0]]


def test_ball_point_rows_equal_one_row_calls_bit_for_bit():
    # a (k, 6) stack with one u and one radius per row gives, row for row, the
    # point of a call on that row alone: a zero draw, and tiny and huge radii too
    rng = np.random.default_rng(38)
    gauss = rng.standard_normal((8, 6))
    gauss[2] = 0.0
    u = rng.random(8)
    u[5] = 1.0
    radii = np.array([0.9, 1e-300, 0.35, 5e-324, 1e300, 1.0, 2.0 ** -14, 1.7e308])[:, None]
    stacked = ball_points(gauss, u, radii)
    for k in range(8):
        for args in ((gauss[k], u[k], float(radii[k, 0])), (gauss[k], u[k], radii[k])):
            one = ball_points(*args)
            assert one.shape == (6,) and one.tobytes() == stacked[k].tobytes()
    # a list of (6,) draws, as the energy probes pass them, reads as the same stack
    assert ball_points(list(gauss[:3]), u[:3], radii[:3]).tobytes() == stacked[:3].tobytes()


def test_certify_power_law_exact_columns():
    cert = certify_constants(POWER, LADDER[:4], 500, 3)
    assert cert.C1_hat == 0.0
    assert cert.C3_hat == 0.0
    assert cert.C0_hat <= 1.0
    assert cert.D0_hat <= 2.0 * POWER.a + 1e-6
    assert len(cert.rows) == 4
    assert cert.samples == 500 and cert.seed == 3


def test_certify_density_bounds():
    cert = certify_constants(RECIP, LADDER[:4], 500, 3)
    bound = (1.0 + 4.0 * RECIP.nu) * RECIP.c / (RECIP.E0 * (1.0 - 2.0 * RECIP.a * RECIP.b))
    assert cert.C0_hat <= bound
    assert math.isfinite(cert.C1_hat) and cert.C1_hat > 0.0
    assert math.isfinite(cert.C3_hat) and cert.C3_hat > 0.0
    # the global maxima dominate every per-rung row
    for row in cert.rows:
        assert row.C0_hat <= cert.C0_hat
        assert row.C3_hat <= cert.C3_hat


def test_certify_is_reproducible():
    a = certify_constants(RECIP, LADDER[:4], 300, 9)
    b = certify_constants(RECIP, LADDER[:4], 300, 9)
    assert a == b
    c = certify_constants(RECIP, LADDER[:4], 300, 10)
    assert c != a


def test_certify_rejects_thin_sampling():
    with pytest.raises(ValueError):
        certify_constants(POWER, LADDER[:4], 99, 0)


@pytest.mark.parametrize("samples, seed, name", [(1000.0, 0, "samples"), (1000, 1.5, "seed"),
                                                  (1000, -1, "seed")])
def test_certify_names_a_bad_samples_or_seed(samples, seed, name):
    with pytest.raises(InvalidParameter, match=name):
        certify_constants(POWER, LADDER[:4], samples, seed)


def test_certify_rejects_empty_ladder():
    with pytest.raises(InvalidParameter):
        certify_constants(POWER, [], 100, 0)


def test_subnormal_deltas_are_inadmissible():
    # 1/delta overflows: one named error up front, not |Etilde| = inf or nan
    with pytest.raises(InadmissibleDelta, match="1e-320 is below the smallest normal"):
        certify_constants(POWER, [LADDER[0], 1e-320], 100, 0)
    for route in (run_convergence, run_convergence_hencky):
        with pytest.raises(InadmissibleDelta, match="1e-310 is below the smallest normal"):
            route(RECIP, SBAR, ROT, [0.01, 1e-300, 1e-305, 1e-310, 1e-315])


@pytest.mark.parametrize("spec", [POWER, RECIP], ids=["power_law", "reciprocal"])
def test_certify_rejects_a_delta_whose_quotients_underflow(spec):
    # delta^2 is 0 in floats, so C3 has no finite value to report
    with pytest.raises(InvalidParameter, match="1e-200"):
        certify_constants(spec, [LADDER[0], 1e-200], 100, 0)


def _point(gauss, u, radius):
    return SymTensor(*ball_points(gauss, u, radius).tolist())


def _certify_row_by_row(spec, deltas, samples, seed):
    # the per-sample definition of the constants, one scalar call per point,
    # drawing from the generator in the same order as certify_constants
    rng = np.random.default_rng(seed)
    dom = certified_domain(spec)
    shrink = 1.0 - 2.0 * PROBE_SCALE
    out = []
    for delta in deltas:
        r_e, r_s = dom * delta, spec.c
        g_e, u_e = rng.standard_normal((samples, 6)), rng.random(samples)
        g_s, u_s = rng.standard_normal((samples, 6)), rng.random(samples)
        d_e, d_s = rng.standard_normal((samples, 6)), rng.standard_normal((samples, 6))
        c0 = c1 = d0 = c3 = 0.0
        for i in range(samples):
            e1 = _point(g_e[i], u_e[i], r_e * shrink)
            s1 = _point(g_s[i], u_s[i], r_s * shrink)
            e2 = e1 + _point(d_e[i], 1.0, 1.0) * (r_e * PROBE_SCALE)
            s2 = s1 + _point(d_s[i], 1.0, 1.0) * (r_s * PROBE_SCALE)
            f00 = family_eval(spec, delta, e1, s1)
            f10 = family_eval(spec, delta, e2, s1)
            f01 = family_eval(spec, delta, e1, s2)
            c0 = max(c0, frobenius(f00) / delta, frobenius(f10) / delta, frobenius(f01) / delta)
            c1 = max(c1, frobenius(f10 - f00) / frobenius(e2 - e1))
            d0 = max(d0, frobenius(f01 - f00) / (delta * frobenius(s2 - s1)))
            c3 = max(c3, leading_gap(spec, delta, e1, s1) / (delta * delta))
        out.append((delta, c0, c1, d0, c3))
    return out


@pytest.mark.parametrize("spec", [POWER, RECIP])
def test_certify_matches_row_by_row_definition(spec):
    cert = certify_constants(spec, LADDER[:3], 200, 4)
    want = _certify_row_by_row(spec, LADDER[:3], 200, 4)
    for row, ref in zip(cert.rows, want):
        got = (row.delta, row.C0_hat, row.C1_hat, row.D0_hat, row.C3_hat)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


GROUPED_SPECS = [
    POWER,
    RECIP,
    FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0),
    FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law"),
]


@pytest.mark.parametrize("spec", GROUPED_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("samples", [100, 300])
def test_certify_grouping_is_bit_exact(monkeypatch, spec, samples):
    # 1 row: one rung per call; 2048 rows: 8 rungs in one group at 100
    # samples, groups of 6 and 2 at 300; 10**6 rows: the whole ladder
    reports = []
    for budget in (1, 2048, 10 ** 6):
        monkeypatch.setattr(analysis, "_BATCH_ROWS", budget)
        reports.append(certify_constants(spec, LADDER, samples, 12))
    assert reports[0] == reports[1] == reports[2]
    assert [row.delta for row in reports[0].rows] == LADDER


@pytest.mark.parametrize("samples, calls", [(100, 1), (10_000, 8)])
def test_certify_call_count_follows_the_row_budget(monkeypatch, samples, calls):
    seen = []

    def counted(*args):
        seen.append(len(args[2].xx))  # a SymTensor of (N,) columns
        return leading_gap(*args)

    monkeypatch.setattr(analysis, "leading_gap", counted)
    certify_constants(RECIP, LADDER, samples, 5)
    assert len(seen) == calls
    assert sum(seen) == samples * len(LADDER)


def test_certify_evaluates_each_point_pair_once(monkeypatch):
    # f00 = f_delta(e1, s1) is handed to leading_gap, not evaluated again
    seen = []

    def counted(*args):
        seen.append(args)
        return family_eval(*args)

    monkeypatch.setattr(analysis, "family_eval", counted)
    monkeypatch.setattr(families, "family_eval", counted)
    certify_constants(RECIP, LADDER, 100, 5)
    assert len(seen) == 3
