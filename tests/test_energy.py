import math

import numpy as np
import pytest
from scipy.integrate import quad

from strainlim import energy
from strainlim.energy import (
    EnergyProfile,
    complementary_energy,
    complementary_energy_quadrature,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from strainlim.errors import NoConvergence, OutOfDomain, Saturation
from strainlim.families import FamilySpec, family_leading
from strainlim.symtensor import SymTensor, frobenius, inner

# conjugate stresses of strains near the limit run well past |S| = 1, so the
# energy tests widen the stress ball
POWER = FamilySpec(kind="power_law", a=1.0, p=2.0, c=3.0)
QUARTIC = FamilySpec(kind="power_law", a=0.7, p=4.0, c=3.0)
SCALED = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05, c=3.0)
ZERO = SymTensor()


def _log_base(Et, S):
    # delta1 * S / (1 + |S|^2): the gradient of (delta1/2) log(1 + |S|^2)
    return S * (0.05 / (1.0 + frobenius(S) ** 2))


SCALED_CALLABLE = FamilySpec(kind="scaled_base", base=_log_base, delta1=0.05, c=3.0)


def _ball(rng, radius):
    v = rng.standard_normal(6)
    w = np.array([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])
    v *= radius * rng.random() ** (1.0 / 6.0) / np.linalg.norm(v * w)
    return SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])


def test_profile_validation():
    with pytest.raises(ValueError):
        EnergyProfile(FamilySpec(kind="density_modulus_reciprocal"))


def test_radial_closed_form_oracle():
    # a s^2 / (1 + sqrt(1 + (as)^2)) at a = 1, s = 1
    prof = EnergyProfile(POWER)
    S = SymTensor(1.0 / math.sqrt(2.0), 0.0, 0.0, 0.5, 0.0, 0.0)
    assert frobenius(S) == pytest.approx(1.0, rel=1e-15)
    assert complementary_energy(prof, S) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert complementary_energy(prof, ZERO) == 0.0


def test_quadrature_matches_closed_form():
    prof = EnergyProfile(POWER)
    rng = np.random.default_rng(61)
    for _ in range(50):
        S = _ball(rng, POWER.c)
        assert complementary_energy_quadrature(prof, S) == pytest.approx(
            complementary_energy(prof, S), rel=1e-10, abs=1e-14
        )


def test_energy_is_isotropic():
    prof = EnergyProfile(POWER)
    s = 0.8
    on_axis = complementary_energy(prof, SymTensor(s, 0.0, 0.0))
    sheared = complementary_energy(prof, SymTensor(0.0, 0.0, 0.0, s / math.sqrt(2.0), 0.0, 0.0))
    assert on_axis == pytest.approx(sheared, rel=1e-12)


def test_gradient_recovers_leading_profile():
    rng = np.random.default_rng(67)
    # a callable base is evaluated row by row, so it gets fewer draws
    for family, draws in ((POWER, 100), (QUARTIC, 100), (SCALED, 100), (SCALED_CALLABLE, 20)):
        prof = EnergyProfile(family)
        for _ in range(draws):
            S = _ball(rng, 0.9 * prof.family.c)
            g = complementary_gradient(prof, S)
            f1 = family_leading(prof.family, ZERO, S)
            assert frobenius(g - f1) <= 1e-6


def test_conjugate_inverts_leading_profile():
    rng = np.random.default_rng(71)
    prof = EnergyProfile(POWER)
    for _ in range(300):
        Et = _ball(rng, 0.9)
        star = conjugate_stress(prof, Et)
        back = family_leading(POWER, ZERO, star)
        assert frobenius(back - Et) <= 1e-12 * max(1.0, frobenius(Et))


def test_conjugate_saturates():
    prof = EnergyProfile(POWER)
    with pytest.raises(Saturation):
        conjugate_stress(prof, SymTensor(1.0, 0.0, 0.0))
    with pytest.raises(Saturation):
        conjugate_stress(prof, SymTensor(0.8, 0.8, 0.0))


@pytest.mark.parametrize("family", [POWER, QUARTIC])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_strain_is_out_of_domain(family, bad):
    prof = EnergyProfile(family)
    E = SymTensor(0.01, bad, 0.0, 0.0, 0.005, 0.0)
    with pytest.raises(OutOfDomain):
        conjugate_stress(prof, E)
    with pytest.raises(OutOfDomain):
        legendre_transform(prof, E)
    with pytest.raises(OutOfDomain):
        green_stress(prof, 0.01, E)


def test_fenchel_young_equality_at_conjugate_pairs():
    rng = np.random.default_rng(73)
    prof = EnergyProfile(POWER)
    for _ in range(300):
        Et = _ball(rng, 0.9)
        star = conjugate_stress(prof, Et)
        gap = legendre_transform(prof, Et) + complementary_energy(prof, star) - inner(Et, star)
        assert abs(gap) <= 1e-9


def test_fenchel_young_strict_off_the_conjugate():
    prof = EnergyProfile(POWER)
    Et = SymTensor(0.3, -0.1, 0.05)
    rng = np.random.default_rng(79)
    star = conjugate_stress(prof, Et)
    for _ in range(100):
        S = _ball(rng, 2.0)
        if frobenius(S - star) < 1e-3:
            continue
        gap = legendre_transform(prof, Et) + complementary_energy(prof, S) - inner(Et, S)
        assert gap > 0.0


def test_biconjugate_consistency_general_p():
    # for p != 2 the transform is evaluated from the definition at the
    # closed-form maximizer; a dense scan over scalings of that maximizer
    # must neither beat it nor fall far short
    prof = EnergyProfile(QUARTIC)
    Et = SymTensor(0.5, -0.2, 0.1, 0.2, 0.0, 0.0)
    w = legendre_transform(prof, Et)
    star = conjugate_stress(prof, Et)
    best = -math.inf
    for t in np.linspace(0.2, 3.0, 400):
        cand = star * float(t)
        if frobenius(cand) > 2.9:
            continue
        best = max(best, inner(Et, cand) - complementary_energy_quadrature(prof, cand))
    assert best <= w + 1e-6
    assert w - best <= 1e-3


def test_complementary_energy_is_midpoint_convex():
    rng = np.random.default_rng(83)
    prof = EnergyProfile(POWER)
    for _ in range(1000):
        S1, S2 = _ball(rng, POWER.c), _ball(rng, POWER.c)
        mid = (S1 + S2) * 0.5
        lhs = complementary_energy(prof, mid)
        rhs = 0.5 * (complementary_energy(prof, S1) + complementary_energy(prof, S2))
        assert lhs <= rhs + 1e-12


def test_green_stress_round_trip():
    rng = np.random.default_rng(89)
    prof = EnergyProfile(POWER)
    delta = 0.01
    for _ in range(50):
        eps = _ball(rng, 0.9 * delta)
        sig = green_stress(prof, delta, eps)
        back = family_leading(POWER, ZERO, sig) * delta
        assert frobenius(back - eps) <= 1e-8


def test_green_stress_saturation_guard():
    prof = EnergyProfile(POWER)
    with pytest.raises(Saturation):
        green_stress(prof, 0.01, SymTensor(0.0099999, 0.0, 0.0))


def test_stress_ball_is_enforced():
    prof = EnergyProfile(POWER)
    with pytest.raises(OutOfDomain):
        complementary_energy(prof, SymTensor(3.5, 0.0, 0.0))


def test_scaled_base_energy_matches_power_law():
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05, c=3.0)
    prof_s = EnergyProfile(scaled)
    prof_p = EnergyProfile(POWER)
    rng = np.random.default_rng(97)
    for _ in range(25):
        S = _ball(rng, 2.5)
        assert complementary_energy_quadrature(prof_s, S) == pytest.approx(
            complementary_energy(prof_p, S), rel=1e-9, abs=1e-14
        )


def _scalar_line_integral(family, S):
    # the former per-stress path: one scalar quad along the ray t -> t S
    value, _ = quad(lambda t: inner(family_leading(family, ZERO, S * t), S), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


@pytest.mark.parametrize("family", [SCALED, SCALED_CALLABLE])
def test_batched_line_integral_matches_scalar_quad(family):
    prof = EnergyProfile(family)
    rng = np.random.default_rng(101)
    stresses = [_ball(rng, family.c) for _ in range(40)]
    # a few on the ball's edge, where the integrand is flattest
    for _ in range(8):
        S = _ball(rng, family.c)
        stresses.append(S * ((1.0 - 1e-15 * rng.random()) * family.c / frobenius(S)))
    stresses.append(ZERO)
    batch = energy._line_integrals(prof, np.array([S.components() for S in stresses]))
    for S, value in zip(stresses, batch):
        reference = _scalar_line_integral(family, S)
        assert abs(value - reference) <= 1e-14
        assert abs(complementary_energy_quadrature(prof, S) - reference) <= 1e-14


def test_line_integral_reports_nonconvergence(monkeypatch):
    real = energy.cubature

    def stalled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.status = "not_converged"
        return result

    monkeypatch.setattr(energy, "cubature", stalled)
    prof = EnergyProfile(SCALED)
    S = SymTensor(0.5, -0.2, 0.1, 0.3, 0.0, 0.1)
    with pytest.raises(NoConvergence):
        complementary_energy_quadrature(prof, S)
    with pytest.raises(NoConvergence):
        complementary_gradient(prof, S)


@pytest.mark.parametrize("family", [POWER, QUARTIC, SCALED])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_stress_is_out_of_domain(family, bad):
    prof = EnergyProfile(family)
    S = SymTensor(0.5, bad, 0.0, 0.1, 0.0, 0.0)
    with pytest.raises(OutOfDomain):
        complementary_energy(prof, S)
    with pytest.raises(OutOfDomain):
        complementary_gradient(prof, S)
