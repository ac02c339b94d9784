import math

import numpy as np
import pytest

from strainlim import analysis
from strainlim.analysis import (
    PROBE_SCALE,
    ball_points,
    certify_constants,
    fit_order,
    richardson_orders,
    run_convergence,
    run_convergence_hencky,
)
from strainlim.errors import (
    AllZeroResiduals,
    FitUnderdetermined,
    InadmissibleDelta,
    InvalidParameter,
    OutOfDomain,
)
from strainlim.families import FamilySpec, certified_domain, family_eval, leading_gap
from strainlim.kinematics import RotationSpec
from strainlim.symtensor import SymTensor, frobenius

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
    with pytest.raises(AllZeroResiduals):
        fit_order(ds, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(FitUnderdetermined):
        fit_order(ds, [0.1, 0.0, 0.0, 0.01])


def test_richardson_orders_pairwise():
    ds = [0.1 * 2.0 ** -k for k in range(5)]
    orders = richardson_orders(ds, [d * d for d in ds])
    assert len(orders) == 4
    for o in orders:
        assert o == pytest.approx(2.0, abs=1e-12)
    # zero rows drop their pairs
    orders = richardson_orders(ds, [0.01, 0.0, 0.000625, 0.00015625, 0.0])
    assert len(orders) == 1


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
            with pytest.raises(OutOfDomain, match="outside the stress ball"):
                route(POWER, SymTensor(bad, 0.0, 0.0), ROT, [0.01, 0.005, 0.0025, 0.00125])


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


def test_certify_rejects_empty_ladder():
    with pytest.raises(InvalidParameter):
        certify_constants(POWER, [], 100, 0)


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
        r_e, r_s = dom.strain_radius(delta), dom.stress_radius
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
        seen.append(len(args[2]))
        return leading_gap(*args)

    monkeypatch.setattr(analysis, "leading_gap", counted)
    certify_constants(RECIP, LADDER, samples, 5)
    assert len(seen) == calls
    assert sum(seen) == samples * len(LADDER)
