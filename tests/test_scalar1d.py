import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainlim.errors import InvalidParameter, OutOfDomain, Saturation
from strainlim.scalar1d import (
    Scalar1DParams,
    one_minus_abs_pow,
    oned_delta0_study,
    oned_forward,
    oned_invert,
    oned_strain,
)

P12 = Scalar1DParams(a=1.0, p=2.0, delta=1e-3)


def test_params_validation():
    with pytest.raises(ValueError):
        Scalar1DParams(a=0.0, p=2.0, delta=1e-3)
    with pytest.raises(ValueError):
        Scalar1DParams(a=1.0, p=0.9, delta=1e-3)
    with pytest.raises(ValueError):
        Scalar1DParams(a=1.0, p=2.0, delta=0.0)
    with pytest.raises(ValueError):
        Scalar1DParams(a=1.0, p=2.0, delta=0.2)
    with pytest.raises(ValueError):
        # a * delta underflows to 0
        Scalar1DParams(a=0.3, p=2.0, delta=5e-324)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("a", "p", "delta"):
            with pytest.raises(ValueError):
                Scalar1DParams(**dict({"a": 1.0, "p": 2.0, "delta": 1e-3}, **{field: bad}))


def test_forward_oracle():
    # u = a S = 1, E = delta / (1 + 1)^{1/2}
    assert oned_forward(P12, 1.0) == pytest.approx(1e-3 / math.sqrt(2.0), rel=1e-15)
    assert oned_forward(P12, 0.0) == 0.0
    assert oned_forward(P12, -1.0) == -oned_forward(P12, 1.0)


def test_forward_respects_the_limit():
    # strictly below delta at any stress the float ratio can resolve; at
    # astronomically large stress the ratio rounds to 1 and the limit is
    # attained exactly, never crossed
    for s in (1.0, 1e3, 1e6):
        assert abs(oned_forward(P12, s)) < P12.delta
    assert abs(oned_forward(P12, 1e12)) <= P12.delta


def test_invert_oracle():
    assert oned_invert(P12, 1e-3 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_invert_blows_up_near_saturation():
    E = P12.delta * (1.0 - 1e-12)
    assert oned_invert(P12, E) > 1e4


def test_invert_saturates():
    for E in (P12.delta, -P12.delta, 1e6 * P12.delta, -1e6 * P12.delta):
        with pytest.raises(Saturation):
            oned_invert(P12, E)


@pytest.mark.parametrize(
    "a,p,smax",
    [(1.0, 2.0, 60.0), (0.5, 1.0, 1e3), (2.0, 4.0, 4.0)],
    ids=["quadratic", "linear", "quartic"],
)
def test_stress_round_trip_on_conditioned_range(a, p, smax):
    # S -> E -> S is 1e-12 wherever (1 + |aS|^p), the conditioning factor,
    # stays modest
    params = Scalar1DParams(a=a, p=p, delta=1e-3)
    for s in np.linspace(-smax, smax, 1001):
        back = oned_invert(params, oned_forward(params, s))
        assert back == pytest.approx(s, rel=1e-12, abs=1e-15)


def test_strain_round_trip_is_uniform():
    # the E -> S -> E direction has no conditioning cliff
    params = Scalar1DParams(a=2.0, p=4.0, delta=1e-3)
    for u in np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 2001):
        E = u * params.delta
        again = oned_forward(params, oned_invert(params, E))
        assert again == pytest.approx(E, rel=1e-12, abs=1e-300)


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.999999, 0.999999))
def test_strain_round_trip_hypothesis(u):
    E = u * P12.delta
    again = oned_forward(P12, oned_invert(P12, E))
    assert again == pytest.approx(E, rel=1e-12, abs=1e-300)


def test_one_minus_abs_pow_near_one():
    # against the cancellation-free factorization 1 - u^2 = (1-u)(1+u)
    for h in (1e-12, 1e-9, 1e-4, 0.1):
        u = 1.0 - h
        exact_h = 1.0 - u  # exact for u in [1/2, 1]
        want = exact_h * (2.0 - exact_h)
        assert one_minus_abs_pow(u, 2.0) == pytest.approx(want, rel=1e-14)


def test_one_minus_abs_pow_endpoints():
    assert one_minus_abs_pow(0.0, 2.0) == 1.0
    assert one_minus_abs_pow(1.0, 2.0) == 0.0
    assert one_minus_abs_pow(0.5, 2.0) == pytest.approx(0.75, rel=1e-15)
    assert one_minus_abs_pow(-0.5, 2.0) == pytest.approx(0.75, rel=1e-15)


def test_strain_measure_identity():
    # eps solves eps + eps^2/2 = E
    for E in (-0.3, -0.01, 0.0, 0.01, 0.3, 2.0):
        eps = oned_strain(E)
        assert eps + 0.5 * eps * eps == pytest.approx(E, rel=1e-14, abs=1e-300)


def test_strain_measure_domain():
    with pytest.raises(OutOfDomain):
        oned_strain(-0.5)
    with pytest.raises(OutOfDomain):
        oned_strain(-0.6)


def test_study_rows_and_diagnostics():
    stresses = np.linspace(0.01, 0.5, 200)
    study = oned_delta0_study(P12, stresses)
    assert len(study.rows) == 200
    r = study.rows[0]
    assert set(r) == {"Sbar", "E", "eps", "delta0", "sigma", "gap"}
    assert r["delta0"] == abs(r["eps"])
    # the observed decay of gap against delta0 is cubic, not linear: the gap
    # carries a factor S^3 while delta0 ~ S near zero
    assert 2.8 <= study.slope <= 3.2
    assert 0.0 < study.ratio_max <= 0.5
    assert 0.0 < study.quad_constant_max <= 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -1e200])
def test_study_rejects_non_finite_stress(bad):
    # 1e300 and -1e200 are finite, but |a S|^p is not
    with pytest.raises(InvalidParameter):
        oned_delta0_study(P12, [0.1, 0.2, bad, 0.3, 0.4])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [lambda x: oned_forward(P12, x), oned_strain,
                                lambda x: oned_invert(P12, x)],
                         ids=["oned_forward", "oned_strain", "oned_invert"])
def test_scalar_maps_reject_non_finite_input(fn, bad):
    with pytest.raises(InvalidParameter):
        fn(bad)


def test_study_zero_stress_slope_is_none():
    study = oned_delta0_study(P12, [0.0, 0.0, 0.0, 0.0])
    assert study.slope is None
    assert study.ratio_max == 0.0
    for r in study.rows:
        assert r["gap"] == 0.0


def test_forward_rejects_a_stress_whose_power_is_not_finite():
    with pytest.raises(InvalidParameter):
        oned_forward(P12, 1e300)
    with pytest.raises(InvalidParameter):  # a S itself overflows to inf
        oned_forward(Scalar1DParams(a=1e200, p=1.0, delta=1e-3), 1e200)
    # just inside the float range the relation saturates at E = delta
    assert oned_forward(P12, 1e150) == P12.delta


def test_study_leaves_underflowing_rows_out_of_the_ratios():
    # |S| delta0 or delta0^2 underflows to 0 for these stresses
    tiny = [1e-320, -5e-324, 1e-200]
    stresses = [0.1, 0.2, 0.3, 0.4]
    study = oned_delta0_study(P12, tiny + stresses)
    assert len(study.rows) == 7
    ref = oned_delta0_study(P12, stresses)
    assert (study.ratio_max, study.quad_constant_max) == (ref.ratio_max, ref.quad_constant_max)
