import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from strainlim import energy
from strainlim.energy import (
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from strainlim.errors import InadmissibleDelta, InvalidParameter, OutOfDomain, Saturation
from strainlim.families import FamilySpec, family_leading
from strainlim.symtensor import SymTensor, frobenius, inner

from draws import ball, rotation

# conjugate stresses of strains near the limit run well past |S| = 1, so the
# energy tests widen the stress ball
POWER = FamilySpec(kind="power_law", a=1.0, p=2.0, c=3.0)
CUBIC = FamilySpec(kind="power_law", a=1.0, p=3.0, c=3.0)
QUARTIC = FamilySpec(kind="power_law", a=0.7, p=4.0, c=3.0)
SCALED = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", c=3.0)
ZERO = SymTensor()


SCALED_QUARTIC = FamilySpec(kind="scaled_base", a=0.7, p=4.0, base="power_law", c=3.0)


def test_profile_validation():
    # a density family's leading profile is no gradient field: every map refuses it
    density = FamilySpec(kind="density_modulus_reciprocal")
    S = SymTensor(0.1, 0.0, 0.0)
    for call in (lambda: complementary_energy(density, S),
                 lambda: complementary_gradient(density, S),
                 lambda: conjugate_stress(density, S),
                 lambda: legendre_transform(density, S),
                 lambda: green_stress(density, 0.01, S * 0.01)):
        with pytest.raises(InvalidParameter):
            call()


# every energy map takes one SymTensor of plain numbers: arrays, batches, lists
# and strings are named errors
_NOT_TENSORS = {"(2, 6)": np.full((2, 6), 0.001), "(1, 6)": np.full((1, 6), 0.001),
                "list": [0.001] * 6, "str": "0.001", "(N, 5)": np.zeros((3, 5)),
                "(N, 7)": np.zeros((3, 7)), "(N, 1)": np.zeros((3, 1)), "1-D": np.zeros(6),
                "3-D": np.zeros((2, 3, 6)), "columns": SymTensor(*np.full((6, 2), 0.001))}
_ENERGY_MAPS = {
    "complementary_energy": lambda A: complementary_energy(POWER, A),
    "scaled_base complementary_energy": lambda A: complementary_energy(SCALED, A),
    "complementary_gradient": lambda A: complementary_gradient(POWER, A),
    "scaled_base complementary_gradient": lambda A: complementary_gradient(SCALED, A),
    "conjugate_stress": lambda A: conjugate_stress(POWER, A),
    "legendre_transform": lambda A: legendre_transform(POWER, A),
    "green_stress": lambda A: green_stress(POWER, 0.01, A),
}


@pytest.mark.parametrize("name", _ENERGY_MAPS)
def test_every_energy_map_refuses_what_is_not_one_tensor(name):
    raised = {}
    for key, A in _NOT_TENSORS.items():
        try:
            _ENERGY_MAPS[name](A)
            raised[key] = None
        except Exception as exc:
            raised[key] = type(exc)
    assert all(error is InvalidParameter for error in raised.values()), raised


@pytest.mark.parametrize("delta", [0.0, -0.01, 0.1, 1e-320, math.nan])
def test_green_stress_rejects_an_inadmissible_delta(delta):
    # power_law admits normal floats in (0, 0.1)
    with pytest.raises(InadmissibleDelta):
        green_stress(POWER, delta, SymTensor(0.001, 0.0, 0.0))


def test_radial_closed_form_oracle():
    # a s^2 / (1 + sqrt(1 + (as)^2)) at a = 1, s = 1
    S = SymTensor(1.0 / math.sqrt(2.0), 0.0, 0.0, 0.5, 0.0, 0.0)
    assert frobenius(S) == pytest.approx(1.0, rel=1e-15)
    assert complementary_energy(POWER, S) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert complementary_energy(POWER, ZERO) == 0.0


def test_zero_stress_energy_needs_no_quadrature(monkeypatch):
    # W*(0) = 0 for every p, so p = 3 returns it before quad loads scipy
    def no_quad(*args, **kwargs):
        raise AssertionError("quad was called")

    monkeypatch.setattr(energy, "quad", no_quad)
    assert complementary_energy(FamilySpec(kind="power_law", p=3.0), ZERO) == 0.0


def test_zero_strain_energy_needs_no_hypergeometric(monkeypatch):
    # W(0) = 0 for every p, so p = 3 returns it before hyp2f1 loads scipy
    def no_hyp(*args, **kwargs):
        raise AssertionError("_hyp was called")

    monkeypatch.setattr(energy, "_hyp", no_hyp)
    assert legendre_transform(CUBIC, ZERO) == 0.0


def _radial_quad(family, S):
    # int_0^|S| a t (1 + (a t)^p)^{-1/p} dt by scipy's adaptive quadrature
    a, p = family.a, family.p
    value, _ = quad(lambda t: a * t * (1.0 + (a * t) ** p) ** (-1.0 / p), 0.0, frobenius(S),
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def test_quadrature_matches_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(50):
        S = ball(rng, POWER.c)
        assert _radial_quad(POWER, S) == pytest.approx(
            complementary_energy(POWER, S), rel=1e-10, abs=1e-14
        )


# a|S| up to the conjugate-stress norm at green_stress's limit |eps/delta| = 1 - 1e-4,
# (1 - (1 - 1e-4)^p)^{-1/p}: 1e4 at p = 1, 2.4 at p = 8
@pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 4.0, 8.0])
def test_hypergeometric_closed_form_matches_quadrature(p):
    family = FamilySpec(kind="power_law", a=0.7, p=p, c=3.0)
    top = (1.0 - (1.0 - 1e-4) ** p) ** (-1.0 / p)
    assert energy.quad(family.a, p, 0.0) == 0.0
    grid = np.concatenate([np.logspace(-6.0, math.log10(top), 25), np.linspace(0.0, top, 26)[1:]])
    for x in grid:
        s = float(x) / family.a
        value = energy.quad(family.a, p, s)
        assert type(value) is float  # numpy's float64 would print as np.float64(...) in a CSV
        assert value == pytest.approx(_radial_quad(family, SymTensor(s)), rel=1e-12, abs=0.0)


def test_hypergeometric_closed_form_at_p_2_is_the_elementary_branch():
    ulp = np.finfo(float).eps
    for a in (0.3, 1.0, 2.5):
        for x in np.logspace(-8.0, 8.0, 161):
            s = float(x) / a
            assert energy.quad(a, 2.0, s) == pytest.approx(energy._radial(a, 2.0, s), rel=8 * ulp)


def _strain_quad(family, e):
    # int_0^e t (1 - t^p)^{-1/p} / a dt by scipy's adaptive quadrature
    a, p = family.a, family.p
    value, _ = quad(lambda t: t * (1.0 - t ** p) ** (-1.0 / p) / a, 0.0, e,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


# |E| up to 0.99, where the integrand t (1 - t^p)^{-1/p} / a reaches 99/a at p = 1
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 8.0])
def test_strain_energy_closed_form_matches_quadrature(p):
    family = FamilySpec(kind="power_law", a=0.7, p=p, c=3.0)
    assert legendre_transform(family, ZERO) == 0.0
    grid = np.concatenate([np.logspace(-6.0, math.log10(0.99), 25), np.linspace(0.0, 0.99, 26)[1:]])
    for x in grid:
        e = float(x)
        value = legendre_transform(family, SymTensor(e))
        assert type(value) is float
        assert value == pytest.approx(_strain_quad(family, e), rel=1e-12, abs=0.0)


def test_strain_energy_closed_form_at_p_2_is_the_elementary_branch():
    # w(e) = (e^2/2a) 2F1(1/2, 1; 2; e^2) = (1 - sqrt(1 - e^2))/a
    ulp = np.finfo(float).eps
    for a in (0.3, 1.0, 2.5):
        family = FamilySpec(kind="power_law", a=a, p=2.0, c=3.0)
        for x in np.logspace(-8.0, math.log10(0.99), 161):
            e = float(x)
            assert 0.5 * e * e / a * energy._hyp(2.0, e * e) == pytest.approx(
                legendre_transform(family, SymTensor(e)), rel=8 * ulp)


def test_energy_is_isotropic():
    s = 0.8
    on_axis = complementary_energy(POWER, SymTensor(s, 0.0, 0.0))
    sheared = complementary_energy(POWER, SymTensor(0.0, 0.0, 0.0, s / math.sqrt(2.0), 0.0, 0.0))
    assert on_axis == pytest.approx(sheared, rel=1e-12)


def test_gradient_recovers_leading_profile():
    rng = np.random.default_rng(67)
    for family in (POWER, QUARTIC, SCALED, SCALED_QUARTIC):
        for _ in range(100):
            S = ball(rng, 0.9 * family.c)
            g = complementary_gradient(family, S)
            f1 = family_leading(family, ZERO, S)
            assert frobenius(g - f1) <= 1e-6


def test_conjugate_inverts_leading_profile():
    rng = np.random.default_rng(71)
    for _ in range(300):
        Et = ball(rng, 0.9)
        star = conjugate_stress(POWER, Et)
        back = family_leading(POWER, ZERO, star)
        assert frobenius(back - Et) <= 1e-12 * max(1.0, frobenius(Et))


def test_conjugate_saturates():
    with pytest.raises(Saturation):
        conjugate_stress(POWER, SymTensor(1.0, 0.0, 0.0))
    with pytest.raises(Saturation):
        conjugate_stress(POWER, SymTensor(0.8, 0.8, 0.0))


@pytest.mark.parametrize("family", [POWER, QUARTIC])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_strain_is_out_of_domain(family, bad):
    E = SymTensor(0.01, bad, 0.0, 0.0, 0.005, 0.0)
    with pytest.raises(OutOfDomain):
        conjugate_stress(family, E)
    with pytest.raises(OutOfDomain):
        legendre_transform(family, E)
    with pytest.raises(OutOfDomain):
        green_stress(family, 0.01, E)


@pytest.mark.parametrize("family", [POWER, CUBIC, QUARTIC], ids=["p2", "p3", "p4"])
def test_fenchel_young_equality_at_conjugate_pairs(family):
    rng = np.random.default_rng(73)
    for _ in range(300):
        Et = ball(rng, 0.9)
        star = conjugate_stress(family, Et)
        gap = legendre_transform(family, Et) + complementary_energy(family, star) - inner(Et, star)
        assert abs(gap) <= 1e-9


@pytest.mark.parametrize("family", [POWER, CUBIC, QUARTIC], ids=["p2", "p3", "p4"])
def test_fenchel_young_strict_off_the_conjugate(family):
    Et = SymTensor(0.3, -0.1, 0.05)
    rng = np.random.default_rng(79)
    star = conjugate_stress(family, Et)
    for _ in range(100):
        S = ball(rng, 2.0)
        if frobenius(S - star) < 1e-3:
            continue
        gap = legendre_transform(family, Et) + complementary_energy(family, S) - inner(Et, S)
        assert gap > 0.0


def test_fenchel_young_catches_a_wrong_complementary_energy(monkeypatch):
    # W and W* are independent closed forms, so scaling G by 1 + 1e-6 opens a
    # gap of 1e-6 W*(S*) at every conjugate pair; a W built from W* would hide it
    good = energy.quad
    monkeypatch.setattr(energy, "quad", lambda a, p, s: good(a, p, s) * (1.0 + 1e-6))
    rng = np.random.default_rng(103)
    for _ in range(50):
        Et = ball(rng, 1.0)
        Et = Et * ((0.3 + 0.6 * rng.random()) / frobenius(Et))
        star = conjugate_stress(CUBIC, Et)
        gap = legendre_transform(CUBIC, Et) + complementary_energy(CUBIC, star) - inner(Et, star)
        assert gap > 1e-9


def test_biconjugate_consistency_general_p():
    # W is its own closed form w(|Et|); a dense scan of <Et, S> - W*(S) over
    # scalings of the closed-form maximizer must neither beat it nor fall far
    # short
    Et = SymTensor(0.5, -0.2, 0.1, 0.2, 0.0, 0.0)
    w = legendre_transform(QUARTIC, Et)
    star = conjugate_stress(QUARTIC, Et)
    best = -math.inf
    for t in np.linspace(0.2, 3.0, 400):
        cand = star * float(t)
        if frobenius(cand) > 2.9:
            continue
        best = max(best, inner(Et, cand) - complementary_energy(QUARTIC, cand))
    assert best <= w + 1e-6
    assert w - best <= 1e-3


def test_complementary_energy_is_midpoint_convex():
    rng = np.random.default_rng(83)
    for _ in range(1000):
        S1, S2 = ball(rng, POWER.c), ball(rng, POWER.c)
        mid = (S1 + S2) * 0.5
        lhs = complementary_energy(POWER, mid)
        rhs = 0.5 * (complementary_energy(POWER, S1) + complementary_energy(POWER, S2))
        assert lhs <= rhs + 1e-12


def test_green_stress_round_trip():
    rng = np.random.default_rng(89)
    delta = 0.01
    for _ in range(50):
        eps = ball(rng, 0.9 * delta)
        sig = green_stress(POWER, delta, eps)
        back = family_leading(POWER, ZERO, sig) * delta
        assert frobenius(back - eps) <= 1e-8


def test_green_stress_saturation_guard():
    with pytest.raises(Saturation):
        green_stress(POWER, 0.01, SymTensor(0.0099999, 0.0, 0.0))


def test_stress_ball_is_enforced():
    with pytest.raises(OutOfDomain):
        complementary_energy(POWER, SymTensor(3.5, 0.0, 0.0))


@pytest.mark.parametrize("family", [POWER, SCALED], ids=["power_law", "scaled_base"])
def test_gradient_names_a_stress_out_of_the_ball(family):
    # the gradient checks the ball before any probe is taken, and names |Sbar|
    with pytest.raises(OutOfDomain, match=r"\|Sbar\| = 3\.5 exceeds 3\.0"):
        complementary_gradient(family, SymTensor(3.5, 0.0, 0.0))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_scaled_base_energy_is_the_power_law_energy(p):
    # a scaled_base leading profile is the power-law profile of its a and p, so
    # both kinds run one radial integral: equal bits, not merely close values
    power = FamilySpec(kind="power_law", a=0.7, p=p, c=3.0)
    scaled = FamilySpec(kind="scaled_base", a=0.7, p=p, base="power_law", c=3.0)
    rng = np.random.default_rng(97)
    for S in [ball(rng, 2.5) for _ in range(25)] + [ZERO]:
        assert complementary_energy(scaled, S) == complementary_energy(power, S)
        assert complementary_gradient(scaled, S) == complementary_gradient(power, S)


def _scalar_line_integral(family, S):
    # an independent reference: one scalar quad along the ray t -> t S
    value, _ = quad(lambda t: inner(family_leading(family, ZERO, S * t), S), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


@pytest.mark.parametrize("family", [SCALED, SCALED_QUARTIC])
def test_scaled_base_energy_matches_scalar_line_integral(family):
    # W*(S) = int_0^1 <f_1(0, t S), S> dt: the radial form is that line integral
    rng = np.random.default_rng(101)
    stresses = [ball(rng, family.c) for _ in range(40)]
    # a few on the ball's edge, where the integrand is flattest
    for _ in range(8):
        S = ball(rng, family.c)
        stresses.append(S * ((1.0 - 1e-15 * rng.random()) * family.c / frobenius(S)))
    stresses.append(ZERO)
    for S in stresses:
        assert abs(complementary_energy(family, S) - _scalar_line_integral(family, S)) <= 1e-14


# the CLI's stress ball (c = 1)
UNIT_SCALED = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law")


@pytest.mark.parametrize("family", [POWER, QUARTIC, SCALED])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_stress_is_out_of_domain(family, bad):
    S = SymTensor(0.5, bad, 0.0, 0.1, 0.0, 0.0)
    with pytest.raises(OutOfDomain):
        complementary_energy(family, S)
    with pytest.raises(OutOfDomain):
        complementary_gradient(family, S)


def _turn(Q, A):
    return SymTensor.from_matrix(Q @ A.as_matrix() @ Q.T)


@pytest.mark.parametrize("family", [POWER, CUBIC, UNIT_SCALED], ids=["p2", "p3", "scaled_base"])
@settings(max_examples=10, deadline=None)
@given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_energy_maps_are_frame_indifferent(family, q, seed):
    # W*(Q S Q^T) = W*(S) and grad W*(Q S Q^T) = Q grad W*(S) Q^T. Turning S
    # in floats moves |S| < 2.7 by a few ulps (about 1e-15) and |grad W*| < 1,
    # so W* moves by as little: 5e-14 leaves a margin. The central differences
    # are not equivariant: their truncation error h^2 |W*'''| / 6 at h = 1e-5
    # and their rounding eps |W*| / h each stay near 1e-10, hence 1e-9. For
    # power_law, W(Q E Q^T) = W(E) too: |E| < 0.9 moves by about 1e-16 and
    # |grad W| = |S*| < 2.1, so 5e-14 holds there as well.
    Q = rotation(q)
    rng = np.random.default_rng(seed)
    S = ball(rng, 0.9 * family.c)
    QS = _turn(Q, S)
    assert abs(complementary_energy(family, QS) - complementary_energy(family, S)) <= 5e-14
    moved = complementary_gradient(family, QS) - _turn(Q, complementary_gradient(family, S))
    assert frobenius(moved) <= 1e-9
    if family.kind == "power_law":
        E = ball(rng, 0.9)
        assert abs(legendre_transform(family, _turn(Q, E)) - legendre_transform(family, E)) <= 5e-14
