import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainlim.analysis import ball_points
from strainlim.errors import (
    InadmissibleDelta,
    NonpositiveModulus,
    OutOfDomain,
    SingularLeading,
)
from strainlim.families import (
    DENSITY_KINDS,
    FamilySpec,
    certified_domain,
    delta_ceiling,
    family_eval,
    family_leading,
    generalized_modulus,
    is_admissible,
    leading_gap,
    working_domain,
)
from strainlim.symtensor import SymTensor, frobenius, trace

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
ZERO = SymTensor()


def _ball(rng, radius):
    v = rng.standard_normal(6)
    w = np.array([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])
    v *= radius * rng.random() ** (1.0 / 6.0) / np.linalg.norm(v * w)
    return SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])


# --- construction ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(kind="nope")
    with pytest.raises(ValueError):
        FamilySpec(kind="power_law", a=-1.0)
    with pytest.raises(ValueError):
        FamilySpec(kind="power_law", p=0.5)
    with pytest.raises(ValueError):
        FamilySpec(kind="density_modulus_reciprocal", nu=0.5)
    with pytest.raises(ValueError):
        # density constraint: 2ab < 1
        FamilySpec(kind="density_modulus_reciprocal", a=1.2, b=0.5)
    with pytest.raises(ValueError):
        FamilySpec(kind="scaled_base")
    with pytest.raises(ValueError):
        FamilySpec(kind="scaled_base", base="mystery")
    for field in ("a", "p", "E0", "nu", "b", "c", "delta1", "delta_max"):
        for bad in (NAN, INF, -INF):
            with pytest.raises(ValueError):
                FamilySpec(kind="power_law", **{field: bad})


def test_delta_ceilings():
    assert delta_ceiling(POWER) == 0.1
    assert delta_ceiling(RECIP) == pytest.approx(0.02)
    assert delta_ceiling(DIRECT) == pytest.approx(0.02)
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05)
    assert delta_ceiling(scaled) == pytest.approx(0.05)
    tight = FamilySpec(kind="power_law", delta_max=0.003)
    assert delta_ceiling(tight) == 0.003


def test_is_admissible_boundary():
    # open interval: the ceiling itself is out
    assert is_admissible(POWER, 0.0999)
    assert not is_admissible(POWER, 0.1)
    assert not is_admissible(POWER, 0.0)
    assert not is_admissible(POWER, -0.01)
    assert is_admissible(RECIP, 0.0199)
    assert not is_admissible(RECIP, 0.02)


def test_domains():
    d = 0.01
    assert working_domain(POWER).strain_radius(d) == pytest.approx(1.05 * d)
    assert certified_domain(POWER).strain_radius(d) == pytest.approx(1.05 * d)
    assert working_domain(POWER).stress_radius == POWER.c
    # density working ball must cover the largest observable profile
    bound = (1.0 + 4.0 * 0.3) * 1.0 / (1.0 * (1.0 - 2.0 * 0.3 * 0.5))
    assert working_domain(RECIP).strain_radius(d) == pytest.approx(1.05 * bound * d)
    assert certified_domain(RECIP).strain_radius(d) == pytest.approx(0.5 * d)


# --- power law ------------------------------------------------------------


def test_power_eval_uniaxial_oracle():
    S = SymTensor(3.0, 0.0, 0.0)
    spec = FamilySpec(kind="power_law", a=1.0, p=2.0, c=4.0)
    out = family_eval(spec, 0.01, ZERO, S)
    # delta * a * (1 + (a |S|)^2)^{-1/2} * S, |S| = 3
    assert out.xx == pytest.approx(0.03 / math.sqrt(10.0), rel=1e-15)
    assert out.yy == 0.0 and out.xy == 0.0


def test_power_eval_ignores_strain_argument():
    S = SymTensor(0.4, -0.2, 0.1, 0.05, 0.0, 0.0)
    E1 = family_eval(POWER, 0.01, ZERO, S)
    E2 = family_eval(POWER, 0.01, SymTensor(0.005, 0.0, 0.0, 0.001, 0.0, 0.0), S)
    assert frobenius(E1 - E2) == 0.0


def test_power_sup_never_exceeds_delta():
    # |f_delta| / delta <= 1 with no tolerance, across the stress ball
    rng = np.random.default_rng(3)
    for _ in range(10000):
        S = _ball(rng, POWER.c)
        out = family_eval(POWER, 0.05, ZERO, S)
        assert frobenius(out) / 0.05 <= 1.0


def test_power_frechet_bound():
    # |f(S1) - f(S2)| <= 2 a delta |S1 - S2|, checked with a small cushion
    rng = np.random.default_rng(9)
    spec = FamilySpec(kind="power_law", a=0.7, p=3.0)
    for _ in range(2000):
        S1 = _ball(rng, spec.c)
        S2 = _ball(rng, spec.c)
        lhs = frobenius(family_eval(spec, 0.02, ZERO, S1) - family_eval(spec, 0.02, ZERO, S2))
        assert lhs <= 2.0 * spec.a * 0.02 * frobenius(S1 - S2) * (1.0 + 1e-6) + 1e-300


def test_power_leading_gap_is_exactly_zero():
    rng = np.random.default_rng(15)
    for _ in range(100):
        S = _ball(rng, POWER.c)
        assert leading_gap(POWER, 0.01, _ball(rng, 0.005), S) == 0.0


def test_power_rejects_stress_outside_ball():
    spec = FamilySpec(kind="power_law", c=1.0)
    with pytest.raises(OutOfDomain):
        family_eval(spec, 0.01, ZERO, SymTensor(1.5, 0.0, 0.0))


def test_inadmissible_delta_raises():
    with pytest.raises(InadmissibleDelta):
        family_eval(POWER, 0.2, ZERO, SymTensor(0.1, 0.0, 0.0))
    with pytest.raises(InadmissibleDelta):
        family_eval(RECIP, 0.05, ZERO, SymTensor(0.1, 0.0, 0.0))


# --- density-dependent modulus --------------------------------------------


def test_density_eval_at_zero_strain():
    # at E = 0 the modulus is E0/delta, so f = delta [(1+nu) S - nu tr(S) I] / E0
    S = SymTensor(1.0, 0.0, 0.0)
    d = 0.01
    for spec in (RECIP, DIRECT):
        out = family_eval(spec, d, ZERO, S)
        assert out.xx == pytest.approx(d * (1.3 - 0.3), rel=1e-14)
        assert out.yy == pytest.approx(-d * 0.3, rel=1e-14)
        assert out.zz == pytest.approx(-d * 0.3, rel=1e-14)
    # trace-free stress leaves only the (1+nu) factor
    S0 = SymTensor(0.0, 0.0, 0.0, 0.5, 0.0, 0.0)
    out = family_eval(RECIP, d, ZERO, S0)
    assert out.xy == pytest.approx(d * 1.3 * 0.5, rel=1e-14)
    assert out.xx == 0.0


def test_modulus_isotropic_closed_form():
    d = 0.01
    e = 0.002
    E = SymTensor(e, e, e)
    detv = (1.0 + 2.0 * e) ** 3
    recip = generalized_modulus(RECIP, d, E)
    expect = (1.0 / d) * 1.0 * (1.0 + 0.3 / d * (detv ** -0.5 - 1.0))
    assert recip == pytest.approx(expect, rel=1e-12)
    direct = generalized_modulus(DIRECT, d, E)
    expect = (1.0 / d) * 1.0 / (1.0 + 0.3 / d * (detv ** 0.5 - 1.0))
    assert direct == pytest.approx(expect, rel=1e-12)


def test_modulus_decreases_with_dilatation():
    d = 0.01
    for spec in (RECIP, DIRECT):
        values = [
            generalized_modulus(spec, d, SymTensor(e, e, e))
            for e in np.linspace(-0.0028, 0.0028, 41)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_modulus_floor_on_certified_ball():
    # E_delta >= E0 (1 - 2ab) / delta everywhere certification samples
    rng = np.random.default_rng(21)
    d = 0.015625
    for spec in (RECIP, DIRECT):
        floor = spec.E0 * (1.0 - 2.0 * spec.a * spec.b) / d
        for _ in range(2000):
            E = _ball(rng, spec.b * d)
            assert generalized_modulus(spec, d, E) >= floor


def test_modulus_outside_certified_ball():
    with pytest.raises(OutOfDomain):
        generalized_modulus(RECIP, 0.01, SymTensor(0.01, 0.0, 0.0))
    with pytest.raises(ValueError):
        generalized_modulus(POWER, 0.01, ZERO)


def test_modulus_guard_fires_for_large_compression():
    # inside the working ball but far past the certified one the bracket
    # can cross zero; eval must refuse rather than flip sign
    d = 0.019
    e = 1.9 * d
    with pytest.raises(NonpositiveModulus):
        family_eval(RECIP, d, SymTensor(e, e, e), SymTensor(0.1, 0.0, 0.0))


def test_density_profile_bound():
    # |f_delta| <= (1+4nu) c delta / (E0 (1-2ab)) on the certified ball
    rng = np.random.default_rng(33)
    d = 0.01
    for spec in (RECIP, DIRECT):
        cap = (1.0 + 4.0 * spec.nu) * spec.c * d / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))
        for _ in range(2000):
            E = _ball(rng, spec.b * d)
            S = _ball(rng, spec.c)
            assert frobenius(family_eval(spec, d, E, S)) <= cap


def test_density_two_term_lipschitz():
    # |f(E1,S1) - f(E2,S2)| <= L_E |E1-E2| + L_S |S1-S2| with a 2x cushion
    rng = np.random.default_rng(37)
    d = 0.01
    for spec in (RECIP, DIRECT):
        ab = spec.a * spec.b
        l_s = (1.0 + 4.0 * spec.nu) * d / (spec.E0 * (1.0 - 2.0 * ab))
        l_e = 2.0 * spec.a * (1.0 + 4.0 * spec.nu) * spec.c / (spec.E0 * (1.0 - 2.0 * ab) ** 2)
        for _ in range(2000):
            E1, E2 = _ball(rng, spec.b * d), _ball(rng, spec.b * d)
            S1, S2 = _ball(rng, spec.c), _ball(rng, spec.c)
            lhs = frobenius(family_eval(spec, d, E1, S1) - family_eval(spec, d, E2, S2))
            rhs = l_e * frobenius(E1 - E2) + l_s * frobenius(S1 - S2)
            assert lhs <= 2.0 * rhs + 1e-300


def test_density_leading_profiles_disagree_quadratically():
    # the reciprocal and direct leading profiles differ by
    # (a tr Etilde)^2 / (1 - a tr Etilde) * |iso term|, bounded by
    # 2 a^2 (tr Etilde)^2 (1+4nu) |S| / E0 once a tr Etilde <= 1/2
    rng = np.random.default_rng(39)
    for _ in range(500):
        Et = _ball(rng, 0.5)
        S = _ball(rng, 1.0)
        gap = frobenius(family_leading(RECIP, Et, S) - family_leading(DIRECT, Et, S))
        x = RECIP.a * trace(Et)
        cap = 2.0 * RECIP.a ** 2 * trace(Et) ** 2 * (1.0 + 4.0 * RECIP.nu) * frobenius(S) / RECIP.E0
        if abs(x) <= 0.5:
            assert gap <= cap + 1e-14


def test_density_leading_gap_shrinks_quadratically():
    S = SymTensor(0.5, 0.25, -0.125)
    E = SymTensor(0.002, 0.001, -0.0005)
    for spec in DENSITY_KINDS:
        fam = FamilySpec(kind=spec, E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
        g1 = leading_gap(fam, 0.01, E, S)
        g2 = leading_gap(fam, 0.005, E * 0.5, S)
        assert g1 > 0.0
        # halving delta (and the strain with it) divides the gap by ~4
        assert g1 / g2 == pytest.approx(4.0, rel=0.2)


def test_leading_singularity_raises():
    Et = SymTensor(1.2, 1.2, 1.2)  # a tr = 1.08 > 1
    with pytest.raises((SingularLeading, OutOfDomain)):
        family_leading(RECIP, Et, SymTensor(0.1, 0.0, 0.0))


# --- scaled base ------------------------------------------------------------


def test_scaled_base_wraps_power_law():
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05)
    rng = np.random.default_rng(51)
    for _ in range(500):
        S = _ball(rng, 1.0)
        E = _ball(rng, 0.004)
        got = family_eval(scaled, 0.01, E, S)
        want = family_eval(POWER, 0.01, E, S)
        assert frobenius(got - want) <= 1e-15 * max(1.0, frobenius(want))


def test_scaled_base_accepts_callable():
    def base(Et, S):
        n = frobenius(S)
        shrink = 0.05 / math.sqrt(1.0 + n * n)
        return S * shrink

    spec = FamilySpec(kind="scaled_base", base=base, delta1=0.05)
    out = family_eval(spec, 0.01, ZERO, SymTensor(1.0, 0.0, 0.0))
    assert out.xx == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-14)


def test_scaled_base_leading_gap_is_exactly_zero():
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law", delta1=0.05)
    rng = np.random.default_rng(53)
    for _ in range(200):
        S = _ball(rng, 1.0)
        E = _ball(rng, 0.004)
        assert leading_gap(scaled, 0.01, E, S) == 0.0


def test_scaled_base_ceiling_tracks_delta1():
    spec = FamilySpec(kind="scaled_base", base="power_law", delta1=0.01, b=0.5)
    assert delta_ceiling(spec) == pytest.approx(0.01)
    spec = FamilySpec(kind="scaled_base", base="power_law", delta1=0.4, b=0.5)
    assert delta_ceiling(spec) == pytest.approx(0.1)


# --- finiteness guards --------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_scalar_path_rejects_nonfinite(bad):
    S = SymTensor(0.1, 0.0, 0.0)
    for spec in (POWER, RECIP, DIRECT):
        with pytest.raises(OutOfDomain):
            family_eval(spec, 0.01, ZERO, SymTensor(0.1, bad, 0.0))
        with pytest.raises(OutOfDomain):
            family_eval(spec, 0.01, SymTensor(0.0, 0.0, 0.0, bad, 0.0, 0.0), S)
        with pytest.raises(OutOfDomain):
            family_leading(spec, SymTensor(bad), S)
        with pytest.raises(OutOfDomain):
            leading_gap(spec, 0.01, ZERO, SymTensor(0.0, 0.0, bad))
    with pytest.raises(OutOfDomain):
        generalized_modulus(RECIP, 0.01, SymTensor(bad))


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_array_path_rejects_nonfinite(bad):
    E = np.zeros((4, 6))
    S = np.full((4, 6), 0.05)
    for spec in (POWER, RECIP, DIRECT):
        for arg in (0, 1):
            args = [E.copy(), S.copy()]
            args[arg][2, 4] = bad
            with pytest.raises(OutOfDomain):
                family_eval(spec, 0.01, *args)
            with pytest.raises(OutOfDomain):
                family_leading(spec, *args)
            with pytest.raises(OutOfDomain):
                leading_gap(spec, 0.01, *args)


# --- batched (N, 6) path against the scalar path ------------------------------


def _base(Et, S):
    # bounded by delta1 = 0.05 and dependent on both arguments
    return (S + Et * 0.1) * (0.05 / math.sqrt(1.0 + frobenius(S) ** 2 + frobenius(Et) ** 2))


BATCH_SPECS = {
    "power_law": POWER,
    "reciprocal": RECIP,
    "direct": DIRECT,
    "scaled_named": FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law"),
    "scaled_callable": FamilySpec(kind="scaled_base", base=_base),
}


def _scalar_rows(fn, *arrays):
    return [fn(*[SymTensor(*row) for row in rows]) for rows in zip(*(a.tolist() for a in arrays))]


def _in_ball(rng, n, radius):
    return ball_points(rng.standard_normal((n, 6)), rng.random(n), radius)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCH_SPECS)),
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 40),
    frac=st.floats(0.01, 0.99),
)
def test_batch_matches_scalar_rows(name, seed, n, frac):
    spec = BATCH_SPECS[name]
    delta = frac * delta_ceiling(spec)
    dom = certified_domain(spec)
    rng = np.random.default_rng(seed)
    E = _in_ball(rng, n, dom.strain_radius(delta))
    S = _in_ball(rng, n, dom.stress_radius)
    Et = E * (1.0 / delta)

    full = family_eval(spec, delta, E, S)
    want = np.array([t.components() for t in _scalar_rows(
        lambda e, s: family_eval(spec, delta, e, s), E, S)])
    assert full.shape == (n, 6)
    assert np.all(np.abs(full - want) <= 1e-14 * np.abs(want))

    lead = family_leading(spec, Et, S)
    want_lead = np.array([t.components() for t in _scalar_rows(
        lambda e, s: family_leading(spec, e, s), Et, S)])
    assert np.all(np.abs(lead - want_lead) <= 1e-14 * np.abs(want_lead))

    # the gap is a cancelling difference of two O(delta) profiles, so its
    # rounding is relative to the size of f_delta, not to the gap itself
    gap = leading_gap(spec, delta, E, S)
    want_gap = np.array(_scalar_rows(lambda e, s: leading_gap(spec, delta, e, s), E, S))
    assert gap.shape == (n,)
    assert np.all(np.abs(gap - want_gap) <= 1e-14 * frobenius(want))
    if spec.kind in ("power_law", "scaled_base"):
        assert np.all(gap == 0.0)

    # a delta column, one delta per row, equals stacked one-row calls
    col = rng.uniform(0.01, 0.99, n) * delta_ceiling(spec)
    Ec = ball_points(rng.standard_normal((n, 6)), rng.random(n), dom.strain_radius(col)[:, None])
    one_row = [(d, Ec[i:i + 1], S[i:i + 1]) for i, d in enumerate(col.tolist())]
    stacked = np.vstack([family_eval(spec, *args) for args in one_row])
    assert np.array_equal(family_eval(spec, col, Ec, S), stacked)
    stacked_gap = np.concatenate([leading_gap(spec, *args) for args in one_row])
    assert np.array_equal(leading_gap(spec, col, Ec, S), stacked_gap)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the exact class is what the tests compare
        return type(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCH_SPECS)),
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 12),
    which=st.sampled_from(("strain", "stress")),
)
def test_batch_with_one_bad_row_raises_the_scalar_error(name, seed, n, which):
    spec = BATCH_SPECS[name]
    delta = 0.5 * delta_ceiling(spec)
    dom = working_domain(spec)
    rng = np.random.default_rng(seed)
    E = _in_ball(rng, n, certified_domain(spec).strain_radius(delta))
    S = _in_ball(rng, n, dom.stress_radius)
    row = int(rng.integers(n))
    if which == "strain":
        E[row] = ball_points(rng.standard_normal(6), 1.0, 1.01 * dom.strain_radius(delta))
    else:
        S[row] = ball_points(rng.standard_normal(6), 1.0, 1.01 * dom.stress_radius)
    e, s = SymTensor(*E[row].tolist()), SymTensor(*S[row].tolist())
    error = _raised(lambda: family_eval(spec, delta, e, s))
    assert error is OutOfDomain
    assert _raised(lambda: family_eval(spec, delta, E, S)) is error
    assert _raised(lambda: leading_gap(spec, delta, E, S)) is error


def test_batch_nonpositive_modulus_row_raises_like_scalar():
    d = 0.019
    e = 1.9 * d
    E = np.zeros((5, 6))
    E[3, :3] = e
    S = np.tile([0.1, 0.0, 0.0, 0.0, 0.0, 0.0], (5, 1))
    scalar = _raised(lambda: family_eval(RECIP, d, SymTensor(e, e, e), SymTensor(0.1)))
    assert scalar is NonpositiveModulus
    assert _raised(lambda: family_eval(RECIP, d, E, S)) is scalar
    assert _raised(lambda: leading_gap(RECIP, d, E, S)) is scalar


def _error(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_delta_column_errors_name_the_failing_row():
    # a batched error reads exactly as the scalar call on the failing row
    E = np.zeros((3, 6))
    S = np.full((3, 6), 0.05)
    col = np.array([0.01, 0.25, 0.5])
    want = (InadmissibleDelta, "delta 0.25 outside (0, 0.02) for kind density_modulus_reciprocal")
    assert _error(lambda: family_eval(RECIP, 0.25, ZERO, ZERO)) == want
    assert _error(lambda: family_eval(RECIP, col, E, S)) == want
    assert _error(lambda: leading_gap(RECIP, col, E, S)) == want
    # row 1 lies inside the other rows' strain balls but outside its own
    col = np.array([0.01, 0.001, 0.01])
    E[1, 0] = 0.005
    want = _error(lambda: family_eval(POWER, 0.001, SymTensor(0.005), SymTensor(*S[1])))
    assert want == (OutOfDomain, "|E| = 0.005 exceeds %r" % (1.05 * 0.001))
    assert _error(lambda: family_eval(POWER, col, E, S)) == want
    assert _error(lambda: leading_gap(POWER, col, E, S)) == want


def test_batch_shapes_and_broadcast():
    S = np.array([[0.1, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.05, 0.0, 0.0]])
    out = family_eval(RECIP, 0.01, ZERO, S)
    assert out.shape == (2, 6)
    assert out[1].tolist() == list(family_eval(RECIP, 0.01, ZERO, SymTensor(*S[1])).components())
    assert family_eval(RECIP, 0.01, np.zeros((0, 6)), np.zeros((0, 6))).shape == (0, 6)
    with pytest.raises(ValueError):
        family_eval(RECIP, 0.01, np.zeros((3, 5)), S[:1])
