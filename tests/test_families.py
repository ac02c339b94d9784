import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainlim.analysis import ball_points
from strainlim.errors import (
    InadmissibleDelta,
    InvalidParameter,
    NoConvergence,
    NonpositiveModulus,
    NotPositiveDefinite,
    OutOfDomain,
    SingularLeading,
)
from strainlim.families import (
    DENSITY_KINDS,
    KINDS,
    FamilySpec,
    certified_domain,
    certify_caps,
    check_ball,
    check_delta,
    delta_ceiling,
    density_line,
    family_eval,
    family_leading,
    fixed_points,
    leading_gap,
    working_domain,
)
from strainlim.solver import solve_implicit
from strainlim.symtensor import SymTensor, frobenius, trace

from draws import ball, hydrostatic_root, rotation

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
ZERO = SymTensor()


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
    for field in ("a", "p", "E0", "nu", "b", "c"):
        for bad in (NAN, INF, -INF):
            with pytest.raises(ValueError):
                FamilySpec(kind="power_law", **{field: bad})
    # (a c)^p past the float range: an OverflowError, or a * c already inf
    for kwargs in ({"a": 1e200}, {"a": 1e10, "p": 40.0}, {"a": 1e200, "c": 1e200, "p": 1.0}):
        with pytest.raises(ValueError):
            FamilySpec(kind="power_law", **kwargs)
        with pytest.raises(ValueError):
            FamilySpec(kind="scaled_base", base="power_law", **kwargs)
    FamilySpec(kind="power_law", a=1e150)  # (a c)^2 = 1e300 is still a float


@pytest.mark.parametrize("kind", ["scaled_base", "power_law"])
@pytest.mark.parametrize("base", [5, [1], True, "x", lambda Et, S: S])
@pytest.mark.parametrize("a", [0.3, 1e200])
def test_base_is_none_or_power_law(kind, base, a):
    # a base of another type once ran the built-in profile without its (a*c)^p guard,
    # and a = 1e200 then overflowed in family_eval; power_law reads no base at all
    want = {"scaled_base": "scaled_base needs base 'power_law'",
            "power_law": r"\(a\*c\)\^p overflows" if a > 1.0 else "power_law does not read base"}
    with pytest.raises(InvalidParameter, match=want[kind]):
        FamilySpec(kind=kind, base=base, a=a)


# the fields each kind reads, written out here apart from `KINDS`
READS = {
    "power_law": ({"kind": "power_law"}, {"a", "p", "c"}),
    "density_modulus_reciprocal": ({"kind": "density_modulus_reciprocal"},
                                   {"a", "E0", "nu", "b", "c"}),
    "density_modulus_direct": ({"kind": "density_modulus_direct"}, {"a", "E0", "nu", "b", "c"}),
    "scaled_builtin": ({"kind": "scaled_base", "base": "power_law"},
                       {"a", "p", "c", "base"}),
}
# a valid value other than the default for each field
OTHER = {"a": 0.2, "p": 3.0, "E0": 2.0, "nu": 0.25, "b": 0.4, "c": 0.9, "base": "power_law"}


@pytest.mark.parametrize("name", sorted(READS))
def test_a_spec_takes_only_the_fields_its_kind_reads(name):
    given, reads = READS[name]
    assert set(KINDS[given["kind"]]) == reads
    for field in dataclasses.fields(FamilySpec)[1:]:
        if field.name in given:
            continue
        FamilySpec(**given, **{field.name: field.default})
        if field.name in reads:
            FamilySpec(**given, **{field.name: OTHER[field.name]})
        else:
            with pytest.raises(InvalidParameter, match=r"does not read %s, got %r$"
                               % (field.name, OTHER[field.name])):
                FamilySpec(**given, **{field.name: OTHER[field.name]})


def test_delta_ceilings():
    assert delta_ceiling(POWER) == 0.1
    assert delta_ceiling(RECIP) == pytest.approx(0.02)
    assert delta_ceiling(DIRECT) == pytest.approx(0.02)
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law")
    assert delta_ceiling(scaled) == 0.1


def test_check_delta_boundary():
    # open interval: the ceiling itself is out
    check_delta(POWER, 0.0999)
    check_delta(RECIP, 0.0199)
    check_delta(POWER, np.array([0.0999, 0.05]))
    for spec, delta in ((POWER, 0.1), (POWER, 0.0), (POWER, -0.01), (RECIP, 0.02),
                        (POWER, math.nan), (POWER, math.inf)):
        with pytest.raises(InadmissibleDelta, match="outside"):
            check_delta(spec, delta)
        with pytest.raises(InadmissibleDelta, match="outside"):
            check_delta(spec, np.array([0.01, delta]))


def test_subnormal_delta_is_inadmissible():
    # below the smallest normal float E/delta overflows and delta^2 is 0
    want = "delta 1e-320 is below the smallest normal float 2.2250738585072014e-308"
    for spec in (POWER, RECIP):
        with pytest.raises(InadmissibleDelta, match=want):
            family_eval(spec, 1e-320, ZERO, SymTensor(0.1))
        with pytest.raises(InadmissibleDelta, match=want):
            family_eval(spec, np.array([0.01, 1e-320, 5e-324]), np.zeros((3, 6)), np.zeros((3, 6)))
    check_delta(POWER, sys.float_info.min)


def test_domains():
    d = 0.01
    assert working_domain(POWER) * d == pytest.approx(1.05 * d)
    assert certified_domain(POWER) * d == pytest.approx(1.05 * d)
    # density working ball must cover the largest observable profile
    bound = (1.0 + 4.0 * 0.3) * 1.0 / (1.0 * (1.0 - 2.0 * 0.3 * 0.5))
    assert working_domain(RECIP) * d == pytest.approx(1.05 * bound * d)
    assert certified_domain(RECIP) * d == pytest.approx(0.5 * d)


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
        S = ball(rng, POWER.c)
        out = family_eval(POWER, 0.05, ZERO, S)
        assert frobenius(out) / 0.05 <= 1.0


def test_power_frechet_bound():
    # |f(S1) - f(S2)| <= 2 a delta |S1 - S2|, checked with a small cushion
    rng = np.random.default_rng(9)
    spec = FamilySpec(kind="power_law", a=0.7, p=3.0)
    for _ in range(2000):
        S1 = ball(rng, spec.c)
        S2 = ball(rng, spec.c)
        lhs = frobenius(family_eval(spec, 0.02, ZERO, S1) - family_eval(spec, 0.02, ZERO, S2))
        assert lhs <= 2.0 * spec.a * 0.02 * frobenius(S1 - S2) * (1.0 + 1e-6) + 1e-300


def test_power_leading_gap_is_exactly_zero():
    rng = np.random.default_rng(15)
    for _ in range(100):
        S = ball(rng, POWER.c)
        assert leading_gap(POWER, 0.01, ball(rng, 0.005), S) == 0.0


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


def _modulus(spec, d, e):
    # E_delta(e I) in closed form: det(I + 2e I) = (1 + 2e)^3
    half = -0.5 if spec.kind == "density_modulus_reciprocal" else 0.5
    bracket = 1.0 + spec.a / d * math.expm1(3.0 * half * math.log1p(2.0 * e))
    return spec.E0 * bracket / d if half < 0.0 else spec.E0 / (d * bracket)


def test_modulus_isotropic_closed_form():
    # f_delta(E, S) = m(S) / E_delta(E) with m(S) = (1+nu) S - nu tr(S) I;
    # S = diag(1, 0, 0) gives m(S)_xx = 1
    d, e = 0.01, 0.002
    for spec in (RECIP, DIRECT):
        out = family_eval(spec, d, SymTensor(e, e, e), SymTensor(1.0))
        assert out.xx == pytest.approx(1.0 / _modulus(spec, d, e), rel=1e-12)


def test_modulus_decreases_with_dilatation():
    # the modulus falls along E = e I, so |f_delta| = |m(S)| / E_delta rises
    d, S = 0.01, SymTensor(1.0)
    for spec in (RECIP, DIRECT):
        norms = [frobenius(family_eval(spec, d, SymTensor(e, e, e), S))
                 for e in np.linspace(-0.0028, 0.0028, 41)]
        assert all(a < b for a, b in zip(norms, norms[1:]))


def test_modulus_floor_on_certified_ball():
    # E_delta >= E0 (1 - 2ab) / delta everywhere certification samples, so
    # |f_delta(E, S)| <= delta |m(S)| / (E0 (1 - 2ab)); the slack covers rounding
    rng = np.random.default_rng(21)
    d, n = 0.015625, 2000
    for spec in (RECIP, DIRECT):
        E = ball_points(rng.standard_normal((n, 6)), rng.random(n), spec.b * d)
        S = ball_points(rng.standard_normal((n, 6)), rng.random(n), spec.c)
        m = (1.0 + spec.nu) * S
        m[:, :3] -= spec.nu * S[:, :3].sum(axis=1, keepdims=True)
        cap = d * frobenius(m) / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))
        assert (frobenius(family_eval(spec, d, E, S)) <= cap * (1.0 + 1e-12)).all()


def test_modulus_guard_fires_for_large_compression():
    # inside the working ball but far past the certified one the bracket
    # can cross zero; eval must refuse rather than flip sign
    d = 0.019
    e = 1.9 * d
    with pytest.raises(NonpositiveModulus):
        family_eval(RECIP, d, SymTensor(e, e, e), SymTensor(0.1, 0.0, 0.0))


@pytest.mark.parametrize("spec", [RECIP, DIRECT, POWER,
                                  FamilySpec(kind="scaled_base", base="power_law")],
                         ids=["reciprocal", "direct", "power_law", "scaled_base"])
def test_density_line_is_family_eval_on_the_line(spec):
    # f_delta(s m, S) = phi(s) m up to the last ulps, exactly for a stress-only
    # kind (m = f_delta(0, S), phi = 1), and phi and its slope raise what
    # family_eval raises at s m, up to 5% past the working ball
    rng = np.random.default_rng(11)
    d = 0.5 * delta_ceiling(spec)
    raised = set()
    for _ in range(400):
        S = ball(rng, spec.c)
        m, phi, slope = density_line(spec, d, S)
        s = rng.uniform(-1.05, 1.05) * working_domain(spec) * d / frobenius(m)
        error = _raised(lambda: family_eval(spec, d, m * s, S))
        assert _raised(lambda: phi(s)) is error
        assert _raised(lambda: slope(s)) is error
        raised.add(error)
        if error is None:
            want = family_eval(spec, d, m * s, S)
            if spec.kind in DENSITY_KINDS:
                assert frobenius(m * phi(s) - want) <= 1e-14 * frobenius(want)
            else:
                assert phi(s) == 1.0 and m == want
    assert OutOfDomain in raised and None in raised


def test_density_line_errors():
    # the census squares a density kind's relation; a stress-only kind has none
    with pytest.raises(InvalidParameter, match="density kind"):
        fixed_points(POWER, 0.01, SymTensor(0.1))
    # the point of test_modulus_guard_fires_for_large_compression, on the line
    d = 0.019
    m, phi, _ = density_line(RECIP, d, SymTensor(0.1, 0.1, 0.1))
    with pytest.raises(NonpositiveModulus):
        phi(1.9 * d / m.xx)


@pytest.mark.parametrize("kind", DENSITY_KINDS)
@pytest.mark.parametrize("a", [0.3, 0.002])
def test_the_census_of_a_zero_stress_is_delta_over_E0(kind, a):
    # D = 1 on the line, so P has two roots: delta / E0 and a squared one, negative
    # with its unsquared side >= 0 (reciprocal, a = 0.3) or positive with that
    # side < 0 (a = 0.002 < delta / 2): s > 0 and the side test each drop one
    spec, delta = FamilySpec(kind=kind, a=a, E0=2.5), 0.01
    roots, beyond = fixed_points(spec, delta, SymTensor())
    assert roots == [pytest.approx(delta / spec.E0, rel=1e-14)]
    assert beyond is None


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
def test_the_census_of_a_hydrostatic_stress_is_the_bisected_root(spec):
    # m = (1 - 2nu) s I, so the solution e I of the stress s I is at e / ((1 - 2nu) s)
    delta, s = 2.0 ** -6, 0.5
    roots, _ = fixed_points(spec, delta, SymTensor(s, s, s))
    assert roots[0] * (1.0 - 2.0 * spec.nu) * s == pytest.approx(
        hydrostatic_root(spec, delta, s), rel=1e-12)


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
@pytest.mark.parametrize("delta", [None, 1e-6, 1e-12, 1e-20, 1e-30],
                         ids=["ceiling/2", "1e-6", "1e-12", "1e-20", "1e-30"])
def test_the_census_root_is_the_picard_fixed_point_at_small_deltas(spec, delta):
    # in t = s / delta no coefficient of P spans (a/delta)^2, so np.roots keeps the
    # root that Picard reaches, here at about 0.2 of the working radius
    delta = 0.5 * delta_ceiling(spec) if delta is None else delta
    S = SymTensor(0.5, 0.25, -0.125, 0.1, 0.0, 0.05)
    _, phi, _ = density_line(spec, delta, S)
    s = 0.0
    for _ in range(60):  # phi contracts by about 3 delta
        s = phi(s)
    roots, _ = fixed_points(spec, delta, S)
    assert roots[0] == pytest.approx(s, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
@pytest.mark.parametrize("delta", [1e-154, float(np.finfo(float).tiny)])
def test_the_census_at_the_smallest_deltas_warns_nothing(spec, delta):
    # where np.roots overflows the census names its failure; numpy warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            roots, beyond = fixed_points(spec, delta, SymTensor(0.5, 0.25, -0.125, 0.1, 0.0, 0.05))
        except NoConvergence as exc:
            assert "np.roots failed" in str(exc)
        else:
            assert isinstance(roots, list) and (beyond is None or isinstance(beyond, float))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(DENSITY_KINDS),
    log_a=st.floats(-3.0, 0.0),
    E0=st.floats(0.5, 2.0),
    nu=st.floats(0.0, 0.49),
    b=st.floats(0.05, 0.99),
    c=st.floats(0.2, 3.0),
    depth=st.floats(0.0, 8.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_census_roots_are_fixed_points_and_a_solve_returns_the_smallest(
        kind, log_a, E0, nu, b, c, depth, seed):
    a = 0.95 * 10.0 ** log_a  # from 0.00095 (a < delta) to 0.95 (a much larger)
    spec = FamilySpec(kind=kind, a=a, E0=E0, nu=nu, b=b * min(1.0, 0.5 / a), c=c)
    delta = 0.99 * delta_ceiling(spec) * 2.0 ** -depth
    rng = np.random.default_rng(seed)
    S = SymTensor(*ball_points(rng.standard_normal(6), rng.random(), spec.c).tolist())
    roots, beyond = fixed_points(spec, delta, S)
    m, phi, slope = density_line(spec, delta, S)
    size, radius = frobenius(m), working_domain(spec) * delta
    assert roots == sorted(roots) and all(0.0 < r and r * size <= radius for r in roots)
    assert beyond is None or beyond * size > radius
    for r in roots:  # phi(s) - s changes sign across each root
        lo, hi = r * (1.0 - 1e-6), r * (1.0 + 1e-6)
        if hi * size <= radius:  # a root on the rim has its upper probe outside
            assert (phi(lo) - lo) * (phi(hi) - hi) < 0.0
    try:
        E = solve_implicit(spec, delta, S).solution
    except NoConvergence as exc:
        assert not roots and "no fixed point in the working ball" in str(exc)
        return
    # the residual tolerance 1e-13 is absolute: it leaves s within 1e-13 / (|m| g'(s))
    # of the root of g(s) = s - phi(s), more than 1e-9 relative where s |m| is small
    reach = 1e-9 * roots[0] * size + 2e-13 / abs(1.0 - slope(roots[0]))
    assert frobenius(E - m * roots[0]) <= reach


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(DENSITY_KINDS + ("power_law", "scaled_base")),
    log_a=st.floats(-3.0, 0.0),
    E0=st.floats(0.5, 2.0),
    nu=st.floats(0.0, 0.49),
    b=st.floats(0.05, 0.99),
    c=st.floats(0.2, 3.0),
    depth=st.floats(0.0, 8.0),
    seed=st.integers(0, 2 ** 32 - 1),
    u=st.floats(-0.999, 0.999),
)
def test_the_slope_is_the_derivative_of_phi(kind, log_a, E0, nu, b, c, depth, seed, u):
    # the closed form against a central difference of phi, with h = 1e-6 of the
    # working radius in s; phi is 1 for a stress-only kind, so its slope is 0.0
    a = 0.95 * 10.0 ** log_a
    if kind in DENSITY_KINDS:
        spec = FamilySpec(kind=kind, a=a, E0=E0, nu=nu, b=b * min(1.0, 0.5 / a), c=c)
    else:
        spec = FamilySpec(kind=kind, a=a, c=c, base="power_law" if kind == "scaled_base" else None)
    delta = 0.99 * delta_ceiling(spec) * 2.0 ** -depth
    rng = np.random.default_rng(seed)
    S = SymTensor(*ball_points(rng.standard_normal(6), rng.random(), spec.c).tolist())
    m, phi, slope = density_line(spec, delta, S)
    radius = working_domain(spec) * delta / frobenius(m)
    s, h = u * radius, 1e-6 * radius
    try:
        central = (phi(s + h) - phi(s - h)) / (2.0 * h)
    except (NotPositiveDefinite, NonpositiveModulus):  # a probe past the modulus domain
        return
    assert abs(slope(s) - central) <= 1e-6 * max(1.0, abs(slope(s)))
    if kind not in DENSITY_KINDS:
        assert slope(s) == 0.0


def test_density_profile_bound():
    # |f_delta| <= (1+4nu) c delta / (E0 (1-2ab)) on the certified ball
    rng = np.random.default_rng(33)
    d = 0.01
    for spec in (RECIP, DIRECT):
        cap = (1.0 + 4.0 * spec.nu) * spec.c * d / (spec.E0 * (1.0 - 2.0 * spec.a * spec.b))
        for _ in range(2000):
            E = ball(rng, spec.b * d)
            S = ball(rng, spec.c)
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
            E1, E2 = ball(rng, spec.b * d), ball(rng, spec.b * d)
            S1, S2 = ball(rng, spec.c), ball(rng, spec.c)
            lhs = frobenius(family_eval(spec, d, E1, S1) - family_eval(spec, d, E2, S2))
            rhs = l_e * frobenius(E1 - E2) + l_s * frobenius(S1 - S2)
            assert lhs <= 2.0 * rhs + 1e-300


def test_density_leading_profiles_disagree_quadratically():
    # the reciprocal and direct leading profiles differ by
    # (a tr Etilde)^2 / (1 - a tr Etilde) * |iso term|, bounded by
    # 2 a^2 (tr Etilde)^2 (1+4nu) |S| / E0 once a tr Etilde <= 1/2
    rng = np.random.default_rng(39)
    for _ in range(500):
        Et = ball(rng, 0.5)
        S = ball(rng, 1.0)
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
        assert leading_gap(fam, 0.01, E, S, family_eval(fam, 0.01, E, S)) == g1
        # halving delta (and the strain with it) divides the gap by ~4
        assert g1 / g2 == pytest.approx(4.0, rel=0.2)


def test_leading_singularity_raises():
    Et = SymTensor(1.2, 1.2, 1.2)  # a tr = 1.08 > 1
    with pytest.raises((SingularLeading, OutOfDomain)):
        family_leading(RECIP, Et, SymTensor(0.1, 0.0, 0.0))


# --- scaled base ------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 6.0])
def test_scaled_base_is_power_law_bit_for_bit(p):
    # scaled_base evaluates as the power_law map of its a and p, float for float
    scaled = FamilySpec(kind="scaled_base", a=1.3, p=p, base="power_law")
    power = FamilySpec(kind="power_law", a=1.3, p=p)
    delta = 0.01
    rng = np.random.default_rng(51)
    E = ball_points(rng.standard_normal((200, 6)), rng.random(200), 1.05 * delta)
    S = ball_points(rng.standard_normal((200, 6)), rng.random(200), 1.0)
    Et = E * (1.0 / delta)

    def maps(spec, e, s, et):
        return (*family_eval(spec, delta, e, s).components(),
                *family_leading(spec, et, s).components(), leading_gap(spec, delta, e, s))

    for got, want in zip(maps(scaled, E, S, Et), maps(power, E, S, Et)):
        assert np.array_equal(got, want)
    for e, s, et in zip(*(A[:50].tolist() for A in (E, S, Et))):
        e, s, et = SymTensor(*e), SymTensor(*s), SymTensor(*et)
        assert maps(scaled, e, s, et) == maps(power, e, s, et)


def test_scaled_base_leading_gap_is_exactly_zero():
    scaled = FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law")
    rng = np.random.default_rng(53)
    for _ in range(200):
        S = ball(rng, 1.0)
        E = ball(rng, 0.004)
        assert leading_gap(scaled, 0.01, E, S) == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 6.0])
def test_scaled_base_has_power_law_domains_and_solutions(p):
    # one stress-only class: the same balls, ceiling and closed-form solve
    scaled = FamilySpec(kind="scaled_base", a=1.3, p=p, c=2.0, base="power_law")
    power = FamilySpec(kind="power_law", a=1.3, p=p, c=2.0)
    for domain in (working_domain, certified_domain, delta_ceiling):
        assert domain(scaled) == domain(power)
    rng = np.random.default_rng(55)
    for delta in (1e-3, 0.07):
        for S in [ball(rng, 2.0) for _ in range(20)] + [ZERO]:
            assert solve_implicit(scaled, delta, S) == solve_implicit(power, delta, S)


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


BATCH_SPECS = {
    "power_law": POWER,
    "reciprocal": RECIP,
    "direct": DIRECT,
    "scaled_named": FamilySpec(kind="scaled_base", a=1.0, p=2.0, base="power_law"),
    "scaled_cubic": FamilySpec(kind="scaled_base", base="power_law", p=3.0),
}


def _array(T):
    """The (N, 6) component array of a SymTensor of (N,) columns."""
    return np.column_stack(T.components())


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
    E = _in_ball(rng, n, dom * delta)
    S = _in_ball(rng, n, spec.c)
    Et = E * (1.0 / delta)

    full = _array(family_eval(spec, delta, E, S))
    want = np.array([t.components() for t in _scalar_rows(
        lambda e, s: family_eval(spec, delta, e, s), E, S)])
    assert full.shape == (n, 6)
    assert np.all(np.abs(full - want) <= 1e-14 * np.abs(want))

    lead = _array(family_leading(spec, Et, S))
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
    Ec = ball_points(rng.standard_normal((n, 6)), rng.random(n), (dom * col)[:, None])
    one_row = [(d, Ec[i:i + 1], S[i:i + 1]) for i, d in enumerate(col.tolist())]
    stacked = np.vstack([_array(family_eval(spec, *args)) for args in one_row])
    assert np.array_equal(_array(family_eval(spec, col, Ec, S)), stacked)
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
    E = _in_ball(rng, n, certified_domain(spec) * delta)
    S = _in_ball(rng, n, spec.c)
    row = int(rng.integers(n))
    if which == "strain":
        E[row] = ball_points(rng.standard_normal(6), 1.0, 1.01 * dom * delta)
    else:
        S[row] = ball_points(rng.standard_normal(6), 1.0, 1.01 * spec.c)
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
    out = _array(family_eval(RECIP, 0.01, ZERO, S))
    assert out.shape == (2, 6)
    assert out[1].tolist() == list(family_eval(RECIP, 0.01, ZERO, SymTensor(*S[1])).components())
    assert _array(family_eval(RECIP, 0.01, np.zeros((0, 6)), np.zeros((0, 6)))).shape == (0, 6)
    # shapes that do not broadcast, and a 1-D pair, are named errors
    for E_rows, S_rows in ((np.zeros((3, 5)), S[:1]), (np.zeros(6), np.zeros(6))):
        with pytest.raises(InvalidParameter, match=r"\(N, 6\)"):
            family_eval(RECIP, 0.01, E_rows, S_rows)


# the batch rule: `symtensor.columns` alone reads (N, 6) arrays, and every entry
# point that takes a batch refuses anything else with InvalidParameter
_D = 0.01
_ROWS = np.full((3, 6), 0.001)
_NOT_BATCHES = {"(N, 5)": np.zeros((3, 5)), "(N, 7)": np.zeros((3, 7)), "(N, 1)": np.zeros((3, 1)),
                "1-D": np.zeros(6), "3-D": np.zeros((2, 3, 6)), "str": "0.01"}
_PAIRS = {**{"E " + k: (A, _ROWS) for k, A in _NOT_BATCHES.items()},
          **{"Sbar " + k: (_ROWS, A) for k, A in _NOT_BATCHES.items()},
          "no broadcast": (_ROWS, np.zeros((4, 6)))}
_BAD_DELTAS = {"delta (1, 1)": np.full((1, 1), _D), "delta (N + 1,)": np.full(4, _D),
               "delta 0-d": np.array(_D)}
_F_ROWS = family_eval(RECIP, _D, _ROWS, _ROWS)
BAD_BATCH_CALLS = {
    "frobenius": {k: lambda A=A: frobenius(A) for k, A in _NOT_BATCHES.items()},
    "check_ball": {k: lambda A=A: check_ball("E", A, 1.0) for k, A in _NOT_BATCHES.items()},
    "family_leading": {k: lambda p=p: family_leading(RECIP, *p) for k, p in _PAIRS.items()},
    "family_eval": {**{k: lambda p=p: family_eval(RECIP, _D, *p) for k, p in _PAIRS.items()},
                    **{k: lambda d=d: family_eval(RECIP, d, _ROWS, _ROWS)
                       for k, d in _BAD_DELTAS.items()}},
    "leading_gap": {**{k: lambda p=p: leading_gap(RECIP, _D, *p) for k, p in _PAIRS.items()},
                    **{k + note: lambda d=d, f=f: leading_gap(RECIP, d, _ROWS, _ROWS, f)
                       for k, d in _BAD_DELTAS.items()
                       for note, f in (("", None), (" with f_delta", _F_ROWS))}},
}


@pytest.mark.parametrize("entry", BAD_BATCH_CALLS)
def test_every_bad_batch_is_an_invalid_parameter(entry):
    raised = {k: _raised(call) for k, call in BAD_BATCH_CALLS[entry].items()}
    assert all(error is InvalidParameter for error in raised.values()), raised


def test_a_0d_delta_is_not_a_batch_of_one():
    # a 0-d delta array is not an (N,) column, against one tensor or against rows
    for E, S in ((ZERO, SymTensor(0.5)), (_ROWS[:1], _ROWS[:1])):
        for spec in (POWER, RECIP):
            for call in (family_eval, leading_gap):
                with pytest.raises(InvalidParameter, match=r"delta of shape \(\)"):
                    call(spec, np.array(_D), E, S)
    # a float delta keeps its path: plain floats
    assert all(type(c) is float for c in family_eval(POWER, _D, ZERO, SymTensor(0.5)).components())
    assert leading_gap(POWER, _D, ZERO, SymTensor(0.5)) == 0.0


# every batch form: an (N, 6) stress array, a SymTensor of (N,) columns (or of one
# column), an (N,) delta column and a 0-d delta array
_LINE_BATCHES = {"(N, 6)": (_D, np.tile([0.1, 0.05, 0.0, 0.02, 0.0, 0.0], (3, 1))),
                 "columns": (_D, SymTensor(*np.full((6, 3), 0.01))),
                 "one column": (_D, SymTensor(np.full(3, 0.1), 0.05)),
                 "delta column": (np.full(3, _D), SymTensor(0.1, 0.05)),
                 "0-d delta": (np.array(_D), SymTensor(0.1, 0.05))}


@pytest.mark.parametrize("spec", [RECIP, DIRECT], ids=["reciprocal", "direct"])
@pytest.mark.parametrize("batch", _LINE_BATCHES)
def test_density_line_refuses_every_batch_form(spec, batch):
    # as fixed_points and the solvers do; the census runs through density_line
    for call in (density_line, fixed_points):
        with pytest.raises(InvalidParameter, match="not a batch"):
            call(spec, *_LINE_BATCHES[batch])


def test_leading_gap_reads_symtensor_columns_as_rows():
    rng = np.random.default_rng(5)
    delta = rng.uniform(0.2, 0.8, 4) * delta_ceiling(RECIP)
    E = ball_points(rng.standard_normal((4, 6)), rng.random(4),
                    (certified_domain(RECIP) * delta)[:, None])
    S = _in_ball(rng, 4, RECIP.c)
    gap = leading_gap(RECIP, delta, E, S)
    assert gap.shape == (4,) and np.all(gap > 0.0)
    cols = [SymTensor(*A.T) for A in (E, S)]
    assert np.array_equal(leading_gap(RECIP, delta, *cols), gap)
    assert np.array_equal(frobenius(family_eval(RECIP, delta, *cols)),
                          frobenius(family_eval(RECIP, delta, E, S)))


def test_every_batch_result_is_a_symtensor_of_columns():
    # (N, 6) arrays, SymTensors of columns, and either with a delta column: one result type
    rng = np.random.default_rng(9)
    n, delta = 5, 0.5 * delta_ceiling(RECIP)
    E = _in_ball(rng, n, certified_domain(RECIP) * delta)
    S = _in_ball(rng, n, RECIP.c)
    cols = [SymTensor(*A.T) for A in (E, S)]
    for spec in (POWER, RECIP, DIRECT):
        for d in (delta, np.full(n, delta)):
            for e, s in ((E, S), cols):
                for out in (family_eval(spec, d, e, s), family_leading(spec, e * (1.0 / delta), s)):
                    assert isinstance(out, SymTensor)
                    assert all(isinstance(c, np.ndarray) and c.shape == (n,)
                               for c in out.components())
                assert leading_gap(spec, d, e, s).shape == (n,)


@pytest.mark.parametrize("spec", [POWER, BATCH_SPECS["scaled_cubic"], RECIP, DIRECT],
                         ids=["power_law", "scaled_base", "reciprocal", "direct"])
def test_every_batch_form_gives_the_same_rows(spec):
    # (N, 6) arrays, SymTensors of (N,) columns, and (N,) strain columns against one
    # stress: N rows each, equal bit for bit, whether or not the kind reads the strain
    rng = np.random.default_rng(11)
    n, delta = 3, 0.5 * delta_ceiling(spec)
    E = _in_ball(rng, n, certified_domain(spec) * delta)
    S = np.repeat(_in_ball(rng, 1, spec.c), n, axis=0)
    forms = [(E, S), (SymTensor(*E.T), SymTensor(*S.T)), (SymTensor(*E.T), SymTensor(*S[0]))]
    for fn in (lambda e, s: _array(family_eval(spec, delta, e, s)),
               lambda e, s: _array(family_leading(spec, e * (1.0 / delta), s)),
               lambda e, s: leading_gap(spec, delta, e, s)):
        want = fn(*forms[0])
        for e, s in forms[1:]:
            got = fn(e, s)
            assert np.shape(got) == want.shape and np.array_equal(got, want)


# --- frame indifference -----------------------------------------------------------


def _turn(Q, rows):
    """Q A Q^T for each (N, 6) row A."""
    return np.array([SymTensor.from_matrix(Q @ SymTensor(*row).as_matrix() @ Q.T).components()
                     for row in rows.tolist()])


def _call(fn, scalar, *arrays):
    """`fn` on (N, 6) arrays or, when `scalar`, on their first rows as SymTensors; the
    result as (N, 6) or (N,) rows."""
    out = fn(*([SymTensor(*a[0].tolist()) for a in arrays] if scalar else arrays))
    return _array(out) if isinstance(out, SymTensor) else np.atleast_1d(out)


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
@settings(max_examples=20, deadline=None)
@given(
    q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(1, 8),
    frac=st.floats(0.01, 0.99),
    scalar=st.booleans(),
)
def test_families_are_frame_indifferent(name, q, seed, n, frac, scalar):
    # every kind is isotropic: f(Q E Q^T, Q S Q^T) = Q f(E, S) Q^T for f_delta and
    # f_1, and leading_gap does not move
    spec, Q = BATCH_SPECS[name], rotation(q)
    delta = frac * delta_ceiling(spec)
    rng = np.random.default_rng(seed)
    # 0.9 of each radius: turning a point moves its norm by rounding alone
    E = _in_ball(rng, n, 0.9 * certified_domain(spec) * delta)
    S = _in_ball(rng, n, 0.9 * spec.c)
    QE, QS = _turn(Q, E), _turn(Q, S)
    full = lambda e, s: family_eval(spec, delta, e, s)
    lead = lambda e, s: family_leading(spec, e * (1.0 / delta), s)
    for fn in (full, lead):
        want = _turn(Q, _call(fn, scalar, E, S))
        assert np.abs(_call(fn, scalar, QE, QS) - want).max() <= 1e-13 * np.abs(want).max()
    gap = lambda e, s: leading_gap(spec, delta, e, s)
    moved = np.abs(_call(gap, scalar, QE, QS) - _call(gap, scalar, E, S))
    assert np.all(moved <= 1e-13 * frobenius(_call(full, scalar, E, S)))


# --- certification caps ---------------------------------------------------------


def test_certify_caps_follow_the_closed_forms():
    assert certify_caps(FamilySpec(kind="power_law", a=1.5)) == {
        "C0": 1.0 + 1e-9, "C1": 1e-12, "D0": 2.0 * 1.5 + 1e-6}
    # scaled_base is the power_law map, so it takes power_law's caps
    assert certify_caps(FamilySpec(kind="scaled_base", base="power_law", a=1.5)) == certify_caps(
        FamilySpec(kind="power_law", a=1.5))
    for kind in DENSITY_KINDS:
        spec = FamilySpec(kind=kind, E0=2.0, nu=0.25, a=0.4, b=0.5, c=1.5)
        caps = certify_caps(spec)
        assert list(caps) == ["C0"]
        # (1 + 4nu) c / (E0 (1 - 2ab))
        assert caps["C0"] == pytest.approx((1.0 + 4.0 * 0.25) * 1.5 / (2.0 * (1.0 - 0.4)),
                                           rel=1e-15)
