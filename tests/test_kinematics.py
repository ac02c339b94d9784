import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from strainlim.errors import (InvalidAxis, InvalidParameter, NotPositiveDefinite, OutOfDomain,
                              Singular, StrainLimError)
from strainlim.kinematics import (
    RotationSpec,
    deformation_from_green,
    deformation_from_hencky,
    density_linearization_gap,
    make_rotation,
    sigma_from_cauchy,
    sigma_from_piola,
)
from strainlim.symtensor import (Spectrum, SymTensor, columns, eig_sym, frobenius, is_rotation,
                                 rows, spd_sqrt, sym_exp, sym_log)

AXIS = (1.0 / math.sqrt(3.0),) * 3
ROT = RotationSpec(axis=AXIS, magnitude_coefficient=1.0)
I3 = np.eye(3)


def _skew_hat(axis):
    # cross-product matrix normalized to unit Frobenius norm
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return k / math.sqrt(2.0)


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.standard_normal(3)
        axis = tuple(v / np.linalg.norm(v))
        coef = float(rng.uniform(0.1, 3.0))
        delta = float(rng.uniform(1e-6, 0.05))
        R = make_rotation(RotationSpec(axis=axis, magnitude_coefficient=coef), delta)
        oracle = expm(delta * coef * _skew_hat(axis))
        assert np.max(np.abs(R - oracle)) < 1e-14
        assert is_rotation(R)


def test_rotation_stays_near_identity():
    R = make_rotation(ROT, 1e-6)
    gap = np.linalg.norm(R - I3)
    assert gap <= 1.5e-6
    assert gap > 0.0


def test_rotation_distance_scales_with_coefficient():
    # |R - I| = 2 sqrt(2) sin(theta/2) <= coef * delta
    for coef in (0.5, 1.0, 2.0):
        spec = RotationSpec(axis=AXIS, magnitude_coefficient=coef)
        for delta in (1e-2, 1e-4):
            gap = np.linalg.norm(make_rotation(spec, delta) - I3)
            assert gap <= coef * delta
            assert gap >= coef * delta * (1.0 - (coef * delta) ** 2)


def test_rotation_zero_coefficient_is_identity():
    R = make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=0.0), 0.01)
    assert np.linalg.norm(R - I3) == 0.0


def test_rotation_rejects_bad_inputs():
    with pytest.raises(InvalidAxis):
        make_rotation(RotationSpec(axis=(1.0, 1.0, 1.0), magnitude_coefficient=1.0), 0.01)
    with pytest.raises(ValueError):
        make_rotation(ROT, 0.0)
    with pytest.raises(ValueError):
        make_rotation(ROT, -0.01)
    with pytest.raises(ValueError):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=-1.0), 0.01)
    with pytest.raises(InvalidAxis):
        make_rotation(RotationSpec(axis=(math.nan, 0.0, 1.0), magnitude_coefficient=1.0), 0.01)
    with pytest.raises(ValueError):
        make_rotation(ROT, math.nan)
    with pytest.raises(ValueError):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=math.nan), 0.01)


@pytest.mark.parametrize("delta, coef",
                         [(math.inf, 1.0), (0.01, math.inf), (0.01, -math.inf), (1e200, 1e200)])
def test_rotation_rejects_infinite_delta_coefficient_and_angle(delta, coef):
    with pytest.raises(InvalidParameter):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=coef), delta)


def test_rotation_renormalizes_nearly_unit_axis():
    off = (1.0 + 5e-9) / math.sqrt(3.0)
    R = make_rotation(RotationSpec(axis=(off, off, off), magnitude_coefficient=1.0), 0.01)
    assert is_rotation(R)


def test_green_uniaxial():
    E = SymTensor(0.005, 0.0, 0.0)
    state = deformation_from_green(E, I3)
    f = state.F
    assert f[0, 0] == pytest.approx(math.sqrt(1.01), rel=1e-15)
    assert f[1, 1] == 1.0 and f[2, 2] == 1.0
    assert frobenius(state.E - E) < 1e-15


def test_green_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.standard_normal(6)
        v *= rng.uniform(0.0, 0.4) / np.linalg.norm(v * np.array([1, 1, 1, 2**0.5, 2**0.5, 2**0.5]))
        E = SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])
        axis = rng.standard_normal(3)
        axis = tuple(axis / np.linalg.norm(axis))
        R = make_rotation(RotationSpec(axis=axis, magnitude_coefficient=1.0), 0.02)
        state = deformation_from_green(E, R)
        assert frobenius(state.E - E) <= 1e-11 * max(1.0, frobenius(E))


def test_green_polar_factor_is_proper():
    E = SymTensor(0.1, -0.05, 0.02, 0.03, 0.0, 0.01)
    R = make_rotation(ROT, 0.03)
    state = deformation_from_green(E, R)
    f = state.F
    assert np.linalg.det(f) > 0.0
    # recover the rotation: R = F U^{-1} with U = (I+2E)^{1/2}
    stretch = spd_sqrt(SymTensor(1.0, 1.0, 1.0) + 2.0 * E)
    u = f @ np.linalg.inv(np.array(stretch.as_matrix()))
    assert np.max(np.abs(u - R)) < 1e-11


def test_green_rejects_collapsed_metric():
    with pytest.raises(NotPositiveDefinite):
        deformation_from_green(SymTensor(-0.6, 0.0, 0.0), I3)


def test_green_rejects_non_rotation():
    stretch = np.diag([1.1, 1.0, 1.0])
    with pytest.raises(ValueError):
        deformation_from_green(SymTensor(0.01, 0.0, 0.0), stretch)


def test_hencky_isotropic_density():
    for h in (0.01, -0.02, 0.1):
        state = deformation_from_hencky(SymTensor(h, h, h), I3)
        assert state.density_ratio == pytest.approx(math.exp(-3.0 * h), rel=1e-13)


def test_hencky_names_an_overflowing_metric():
    # e^H is finite, but C = F^T F holds e^800
    with pytest.raises(OutOfDomain, match="overflows"):
        deformation_from_hencky(SymTensor(400.0, -400.0, 0.0), I3)


def test_hencky_names_a_vanishing_determinant():
    # det F = e^(tr H) = 2.3e-15 is positive but below the 1e-14 floor
    with pytest.raises(Singular, match="2.31.*is not a finite number above 1e-14"):
        deformation_from_hencky(SymTensor(-15.7, -15.7, -2.3), I3)


def test_hencky_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(200):
        v = rng.standard_normal(6)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v * np.array([1, 1, 1, 2**0.5, 2**0.5, 2**0.5]))
        H = SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])
        axis = rng.standard_normal(3)
        axis = tuple(axis / np.linalg.norm(axis))
        R = make_rotation(RotationSpec(axis=axis, magnitude_coefficient=2.0), 0.01)
        state = deformation_from_hencky(H, R)
        assert frobenius(state.H - H) <= 1e-11 * max(1.0, frobenius(H))


def test_piola_diagonal_oracle():
    F = np.diag([1.1, 0.9, 1.0])
    S = SymTensor(2.0, -1.0, 0.5)
    sig = sigma_from_piola(F, S)
    assert sig.xx == pytest.approx(2.2, rel=1e-15)
    assert sig.yy == pytest.approx(-0.9, rel=1e-15)
    assert sig.zz == pytest.approx(0.5, rel=1e-15)
    assert sig.xy == 0.0


def test_piola_identity_is_passthrough():
    S = SymTensor(1.0, 0.5, -0.25, 0.1, 0.0, 0.2)
    assert frobenius(sigma_from_piola(I3, S) - S) == 0.0


def test_piola_keeps_a_symmetric_part_near_the_float_range():
    # xy + yx overflows, but their mean is finite
    assert sigma_from_piola(I3, SymTensor(xy=1.5e308)).xy == 1.5e308


def test_cauchy_diagonal_oracle():
    F = np.diag([1.2, 1.0, 0.8])
    T = SymTensor(3.0, 1.0, -2.0)
    sig = sigma_from_cauchy(F, T)
    d = 1.2 * 0.8
    assert sig.xx == pytest.approx(d * 3.0 / 1.2, rel=1e-14)
    assert sig.yy == pytest.approx(d * 1.0, rel=1e-14)
    assert sig.zz == pytest.approx(d * -2.0 / 0.8, rel=1e-14)


def test_cauchy_rejects_singular():
    F = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(Singular):
        sigma_from_cauchy(F, SymTensor(1.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cauchy_rejects_non_finite(bad):
    F = np.array([[1.1, 0.1, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 1.0]])
    F_bad = F.copy()
    F_bad[0, 0] = bad
    with pytest.raises(Singular):
        sigma_from_cauchy(F_bad, SymTensor(1.0, 0.5, 0.2))
    with pytest.raises(InvalidParameter):
        sigma_from_cauchy(F, SymTensor(1.0, 0.5, 0.2, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_piola_rejects_non_finite(bad):
    F = np.array([[1.1, 0.1, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 1.0]])
    F_bad = F.copy()
    F_bad[1, 2] = bad
    with pytest.raises(InvalidParameter):
        sigma_from_piola(F_bad, SymTensor(1.0, 0.5, 0.2))
    with pytest.raises(InvalidParameter):
        sigma_from_piola(F, SymTensor(1.0, 0.5, 0.2, bad))


def test_overflowing_finite_entries_raise_named_errors():
    # each overflowed numpy with a RuntimeWarning, or returned inf
    with pytest.raises(InvalidAxis, match="inf"):
        make_rotation(RotationSpec(axis=(0.0, 0.0, 1.4e154), magnitude_coefficient=0.0), 1.0)
    F = np.diag([0.0, 0.0, 3.4e38])
    with pytest.raises(OutOfDomain):
        sigma_from_piola(F, SymTensor(yz=5.3e269))
    with pytest.raises(OutOfDomain):
        sigma_from_cauchy(np.diag([1.0, 1e-40, 1e40]), SymTensor(yz=5.3e269))
    with pytest.raises(OutOfDomain):  # finite product, inf after the det factor
        sigma_from_cauchy(np.eye(3) * 1e100, SymTensor(1e200))
    with pytest.raises(OutOfDomain):  # F^T F fits, det F and |F - I| do not
        deformation_from_green(SymTensor(8e307, 8e307, 8e307), make_rotation(ROT, 1.0))


def test_strain_measures_and_stresses_hold_plain_floats():
    R = make_rotation(ROT, 0.05)
    S = SymTensor(0.5, 0.25, -0.125, 0.1, 0.0, 0.2)
    strain = SymTensor(0.01, -0.02, 0.005, 0.003, 0.0, -0.001)
    green, hencky = deformation_from_green(strain, R), deformation_from_hencky(strain, R)
    tensors = [getattr(state, name) for state in (green, hencky)
               for name in ("C", "B", "E", "eps")]
    tensors += [sigma_from_piola(green.F, S), sigma_from_cauchy(hencky.F, S)]
    for t in tensors:
        assert [type(x) for x in t.components()] == [float] * 6


def test_density_linearization_gap_is_quadratic():
    state = deformation_from_green(SymTensor(4e-4, 3e-4, -2e-4, 1e-4, 0.0, 0.0), I3)
    assert frobenius(state.eps) < 1.2e-3
    assert density_linearization_gap(state) <= 5e-6


def test_delta0_measures_distance_to_identity():
    state = deformation_from_green(SymTensor(), I3)
    assert state.delta0 == 0.0
    state = deformation_from_green(SymTensor(0.01, 0.0, 0.0), I3)
    assert state.delta0 == pytest.approx(math.sqrt(1.02) - 1.0, rel=1e-12)


# --- property tests: finite numbers or a named error ------------------------------

def _entries(n):
    """n finite entries, all within +-0.3 or drawn from every finite float
    (huge ones overflow numpy's matrix products); in half of the draws one of
    them is NaN or an infinity."""
    def place(draw):
        values, slot, bad = draw
        return values[:slot] + [bad] + values[slot + 1:] if slot < n else values
    finite = st.one_of(*(st.lists(floats, min_size=n, max_size=n) for floats in (
        st.floats(-0.3, 0.3), st.floats(allow_nan=False, allow_infinity=False))))
    return st.tuples(finite,
                     st.integers(0, 2 * n - 1),
                     st.sampled_from([math.nan, math.inf, -math.inf])).map(place)


_SYM = _entries(6).map(lambda v: SymTensor(*v))
_MATRIX = _entries(9).map(lambda v: np.array(v).reshape(3, 3))
# unit 3-vectors, and 2-, 3- and 4-vectors of finite and NaN or infinite entries
_AXIS = st.one_of(st.sampled_from([AXIS, (0.0, 0.6, 0.8), (-1.0, 0.0, 0.0)]),
                  *(_entries(n).map(tuple) for n in (2, 3, 4)))
# (axis, coefficient) pairs: a bad pair raises when the RotationSpec is built
_ROTATION = st.tuples(_AXIS, st.floats())


def _finite_or_named_error(call):
    """Run `call`; it must raise a StrainLimError or return only finite numbers."""
    try:
        out = call()
    except StrainLimError:
        return None
    if isinstance(out, SymTensor):
        values = out.components()
    elif isinstance(out, Spectrum):
        values = list(out.eigenvalues) + out.frame.ravel().tolist()
    elif isinstance(out, np.ndarray):
        values = out.ravel().tolist()
    else:
        values = (out.F.ravel().tolist()
                  + [x for t in (out.C, out.B, out.E, out.eps, out.H) for x in t.components()]
                  + [out.density_ratio, out.delta0, density_linearization_gap(out)])
    assert all(map(math.isfinite, values)), out
    return out


def _values(out):
    """The numbers of a result, one list per row; a single result is one row."""
    if isinstance(out, SymTensor):
        return [list(r.components()) for r in rows(out)]
    if isinstance(out, np.ndarray):
        return [m.ravel().tolist() for m in out.reshape(-1, 3, 3)]
    if isinstance(out, Spectrum):
        return [e + f for e, f in zip(np.reshape(out.eigenvalues, (-1, 3)).tolist(),
                                      _values(out.frame))]
    parts = [_values(t) for t in (out.F, out.C, out.B, out.E, out.eps, out.H)] + [
        [[x] for x in np.ravel(v).tolist()] for v in (out.density_ratio, out.delta0)]
    return [sum(row, []) for row in zip(*parts)]


def _batch_matches_rows(batch, singles):
    """`batch` is one call on N rows, at most one of them bad, and `singles` the N
    calls on one row each. With every row good the batch gives each row's numbers
    bit for bit; with a bad row it raises that row's error and message; it never warns."""
    outcomes = []
    for call in singles:
        try:
            outcomes.append(call())
        except StrainLimError as exc:
            outcomes.append(exc)
    failed = [o for o in outcomes if isinstance(o, StrainLimError)]
    if not failed:
        hexed = lambda rows_: [[x.hex() for x in row] for row in rows_]
        assert hexed(_values(batch())) == hexed(sum(map(_values, outcomes), []))
        return
    with pytest.raises(StrainLimError) as info:
        batch()
    assert (type(info.value), str(info.value)) == (type(failed[0]), str(failed[0]))


# a good row, a small strain or stress; a batch puts it and the drawn row in the order `first`
_GOOD = SymTensor(0.01, -0.02, 0.005, 0.003, 0.0, -0.001)


def _pair(good, drawn, first):
    return [drawn, good] if first else [good, drawn]


def _batch(tensors):
    return columns(np.array([t.components() for t in tensors]))[0]


@settings(max_examples=100, deadline=None)
@given(rotation=_ROTATION, delta=st.floats(), first=st.booleans())
@example(rotation=((1.0, 0.0), 1.0), delta=0.01, first=True)
@example(rotation=((1.0, 0.0, 0.0, 0.0), 1.0), delta=0.01, first=True)
def test_make_rotation_gives_finite_numbers_or_a_named_error(rotation, delta, first):
    _finite_or_named_error(lambda: make_rotation(RotationSpec(*rotation), delta))
    if len(rotation[0]) != 3:  # a unit 2- or 4-vector is no axis either
        with pytest.raises(InvalidAxis):
            RotationSpec(*rotation)
    deltas = _pair(0.01, delta, first)
    _batch_matches_rows(lambda: make_rotation(ROT, np.array(deltas)),
                        [lambda d=d: make_rotation(ROT, d) for d in deltas])


@settings(max_examples=100, deadline=None)
@given(strain=_SYM, rotation=_ROTATION, R=_MATRIX, use_spec=st.booleans(), hencky=st.booleans(),
       first=st.booleans())
def test_deformation_gives_finite_numbers_or_a_named_error(strain, rotation, R, use_spec, hencky,
                                                           first):
    if use_spec:
        R = _finite_or_named_error(lambda: make_rotation(RotationSpec(*rotation), 0.01))
        R = np.eye(3) if R is None else R
    build = deformation_from_hencky if hencky else deformation_from_green
    _finite_or_named_error(lambda: build(strain, R))
    Es, Rs = _pair(_GOOD, strain, first), _pair(make_rotation(ROT, 0.05), R, first)
    _batch_matches_rows(lambda: build(_batch(Es), np.stack(Rs)),
                        [lambda E=E, R=R: build(E, R) for E, R in zip(Es, Rs)])


@settings(max_examples=100, deadline=None)
@given(F=_MATRIX, stress=_SYM, cauchy=st.booleans(), first=st.booleans())
def test_pushforward_gives_finite_numbers_or_a_named_error(F, stress, cauchy, first):
    pushforward = sigma_from_cauchy if cauchy else sigma_from_piola
    _finite_or_named_error(lambda: pushforward(F, stress))
    Fs, Ss = _pair(np.diag([1.1, 0.9, 1.0]), F, first), _pair(_GOOD, stress, first)
    _batch_matches_rows(lambda: pushforward(np.stack(Fs), _batch(Ss)),
                        [lambda F=F, S=S: pushforward(F, S) for F, S in zip(Fs, Ss)])


@settings(max_examples=100, deadline=None)
@given(A=_SYM, fn=st.sampled_from([eig_sym, spd_sqrt, sym_log, sym_exp]), first=st.booleans())
def test_spectral_maps_give_finite_numbers_or_a_named_error(A, fn, first):
    _finite_or_named_error(lambda: fn(A))
    As = _pair(SymTensor.identity() + _GOOD, A, first)  # the good row is positive definite
    _batch_matches_rows(lambda: fn(_batch(As)), [lambda B=B: fn(B) for B in As])
