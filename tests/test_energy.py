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
from strainlim.errors import (InadmissibleDelta, InvalidParameter, NoConvergence, OutOfDomain,
                              Saturation)
from strainlim.families import FamilySpec, family_leading
from strainlim.symtensor import SymTensor, frobenius, inner

from draws import ball, rotation

# conjugate stresses of strains near the limit run well past |S| = 1, so the
# energy tests widen the stress ball
POWER = FamilySpec(kind="power_law", a=1.0, p=2.0, c=3.0)
QUARTIC = FamilySpec(kind="power_law", a=0.7, p=4.0, c=3.0)
SCALED = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05, c=3.0)
ZERO = SymTensor()


SCALED_QUARTIC = FamilySpec(kind="scaled_base", a=0.7, p=4.0, base="power_law", c=3.0)


def test_profile_validation():
    # a density family's leading profile is no gradient field: every map refuses it
    density = FamilySpec(kind="density_modulus_reciprocal")
    S = SymTensor(0.1, 0.0, 0.0)
    for call in (lambda: complementary_energy(density, S),
                 lambda: complementary_gradient(density, S),
                 lambda: complementary_gradient(density, np.array([S.components()])),
                 lambda: conjugate_stress(density, S),
                 lambda: legendre_transform(density, S),
                 lambda: green_stress(density, 0.01, S * 0.01)):
        with pytest.raises(InvalidParameter):
            call()


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


def test_fenchel_young_equality_at_conjugate_pairs():
    rng = np.random.default_rng(73)
    for _ in range(300):
        Et = ball(rng, 0.9)
        star = conjugate_stress(POWER, Et)
        gap = legendre_transform(POWER, Et) + complementary_energy(POWER, star) - inner(Et, star)
        assert abs(gap) <= 1e-9


def test_fenchel_young_strict_off_the_conjugate():
    Et = SymTensor(0.3, -0.1, 0.05)
    rng = np.random.default_rng(79)
    star = conjugate_stress(POWER, Et)
    for _ in range(100):
        S = ball(rng, 2.0)
        if frobenius(S - star) < 1e-3:
            continue
        gap = legendre_transform(POWER, Et) + complementary_energy(POWER, S) - inner(Et, S)
        assert gap > 0.0


def test_biconjugate_consistency_general_p():
    # for p != 2 the transform is evaluated from the definition at the
    # closed-form maximizer; a dense scan over scalings of that maximizer
    # must neither beat it nor fall far short
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


def test_scaled_base_energy_matches_power_law():
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05, c=3.0)
    rng = np.random.default_rng(97)
    for _ in range(25):
        S = ball(rng, 2.5)
        assert complementary_energy(scaled, S) == pytest.approx(
            complementary_energy(POWER, S), rel=1e-9, abs=1e-14
        )


def _scalar_line_integral(family, S):
    # the former per-stress path: one scalar quad along the ray t -> t S
    value, _ = quad(lambda t: inner(family_leading(family, ZERO, S * t), S), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


@pytest.mark.parametrize("family", [SCALED, SCALED_QUARTIC])
def test_batched_line_integral_matches_scalar_quad(family):
    rng = np.random.default_rng(101)
    stresses = [ball(rng, family.c) for _ in range(40)]
    # a few on the ball's edge, where the integrand is flattest
    for _ in range(8):
        S = ball(rng, family.c)
        stresses.append(S * ((1.0 - 1e-15 * rng.random()) * family.c / frobenius(S)))
    stresses.append(ZERO)
    batch = energy._line_integrals(family, np.array([S.components() for S in stresses]))
    for S, value in zip(stresses, batch):
        reference = _scalar_line_integral(family, S)
        assert abs(value - reference) <= 1e-14
        assert abs(complementary_energy(family, S) - reference) <= 1e-14


def test_line_integral_reports_nonconvergence(monkeypatch):
    real = energy.cubature

    def stalled(*args, **kwargs):
        result = real(*args, **kwargs)
        result.status = "not_converged"
        return result

    monkeypatch.setattr(energy, "cubature", stalled)
    S = SymTensor(0.5, -0.2, 0.1, 0.3, 0.0, 0.1)
    with pytest.raises(NoConvergence):
        complementary_energy(SCALED, S)
    with pytest.raises(NoConvergence):
        complementary_gradient(SCALED, S)


# the CLI's stress ball (c = 1): no line integral here needs a subdivision, so
# sharing a cubature call leaves every row's value unchanged
UNIT_SCALED = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05)
UNIT_SCALED_QUARTIC = FamilySpec(kind="scaled_base", a=0.7, p=4.0, base="power_law")
CUBIC = FamilySpec(kind="power_law", a=1.0, p=3.0, c=3.0)


@pytest.mark.parametrize("family", [UNIT_SCALED, UNIT_SCALED_QUARTIC, POWER, CUBIC])
def test_batched_gradient_equals_per_stress_calls(family):
    rng = np.random.default_rng(103)
    stresses = [ball(rng, 0.9 * family.c) for _ in range(20)] + [ZERO]
    rows = np.array([S.components() for S in stresses])
    batch = complementary_gradient(family, rows)
    assert batch.shape == (len(stresses), 6)
    # a SymTensor of (N,) columns is the same batch
    assert np.array_equal(complementary_gradient(family, SymTensor(*rows[:3].T)), batch[:3])
    for S, row in zip(stresses, batch.tolist()):
        assert row == list(complementary_gradient(family, S).components())
    one = complementary_gradient(family, np.array([stresses[0].components()]))
    assert one.tolist() == [list(complementary_gradient(family, stresses[0]).components())]
    assert complementary_gradient(family, np.empty((0, 6))).shape == (0, 6)


def test_batched_gradient_splits_at_the_row_cap(monkeypatch):
    rng = np.random.default_rng(107)
    stresses = np.array([ball(rng, 0.9).components() for _ in range(40)])
    rows = []  # the rows of each cubature call
    real = energy.cubature

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        rows.append(len(result.estimate))
        return result

    monkeypatch.setattr(energy, "cubature", counted)
    whole = complementary_gradient(UNIT_SCALED, stresses)
    assert sum(rows) == 12 * len(stresses) and max(rows) <= energy._BATCH_ROWS
    assert len(rows) == -(-12 * len(stresses) // energy._BATCH_ROWS)
    # a cap that splits probes across calls changes no value
    monkeypatch.setattr(energy, "_BATCH_ROWS", 30)
    rows.clear()
    assert complementary_gradient(UNIT_SCALED, stresses).tolist() == whole.tolist()
    assert rows == [30] * 16


def test_batched_gradient_stays_close_where_integrals_subdivide():
    # at |S| up to 2.7 cubature subdivides [0, 1], and a shared call refines
    # every row of the batch alike: the last digits may move, nothing more
    rng = np.random.default_rng(109)
    stresses = [ball(rng, 0.9 * SCALED.c) for _ in range(12)]
    batch = complementary_gradient(SCALED, np.array([S.components() for S in stresses]))
    single = [complementary_gradient(SCALED, S).components() for S in stresses]
    assert np.max(np.abs(batch - np.array(single))) <= 1e-10


def test_batched_gradient_raises_for_the_first_stress_out_of_the_ball():
    stresses = np.array([[0.1, 0, 0, 0, 0, 0], [2.0, 0, 0, 0, 0, 0], [math.nan, 0, 0, 0, 0, 0]])
    with pytest.raises(OutOfDomain, match="2.0"):
        complementary_gradient(UNIT_SCALED, stresses)


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
    # and their rounding eps |W*| / h each stay near 1e-10, hence 1e-9.
    Q = rotation(q)
    S = ball(np.random.default_rng(seed), 0.9 * family.c)
    QS = _turn(Q, S)
    assert abs(complementary_energy(family, QS) - complementary_energy(family, S)) <= 5e-14
    moved = complementary_gradient(family, QS) - _turn(Q, complementary_gradient(family, S))
    assert frobenius(moved) <= 1e-9
