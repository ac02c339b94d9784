import math

import numpy as np
import pytest
from scipy.linalg import expm

from strainlim.errors import InvalidAxis, InvalidParameter, NotPositiveDefinite, Singular
from strainlim.kinematics import (
    RotationSpec,
    deformation_from_green,
    deformation_from_hencky,
    density_linearization_gap,
    make_rotation,
    sigma_from_cauchy,
    sigma_from_piola,
)
from strainlim.symtensor import SymTensor, Tensor3, frobenius, is_rotation, spd_sqrt

AXIS = (1.0 / math.sqrt(3.0),) * 3
ROT = RotationSpec(axis=AXIS, magnitude_coefficient=1.0)


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
        assert np.max(np.abs(np.array(R.as_matrix()) - oracle)) < 1e-14
        assert is_rotation(R)


def test_rotation_stays_near_identity():
    R = make_rotation(ROT, 1e-6)
    gap = frobenius(R - Tensor3.identity())
    assert gap <= 1.5e-6
    assert gap > 0.0


def test_rotation_distance_scales_with_coefficient():
    # |R - I| = 2 sqrt(2) sin(theta/2) <= coef * delta
    for coef in (0.5, 1.0, 2.0):
        spec = RotationSpec(axis=AXIS, magnitude_coefficient=coef)
        for delta in (1e-2, 1e-4):
            gap = frobenius(make_rotation(spec, delta) - Tensor3.identity())
            assert gap <= coef * delta
            assert gap >= coef * delta * (1.0 - (coef * delta) ** 2)


def test_rotation_zero_coefficient_is_identity():
    R = make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=0.0), 0.01)
    assert frobenius(R - Tensor3.identity()) == 0.0


def test_rotation_rejects_bad_inputs():
    with pytest.raises(InvalidAxis):
        make_rotation(RotationSpec(axis=(1.0, 1.0, 1.0), magnitude_coefficient=1.0), 0.01)
    with pytest.raises(ValueError):
        make_rotation(ROT, 0.0)
    with pytest.raises(ValueError):
        make_rotation(ROT, -0.01)
    with pytest.raises(ValueError):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=-1.0), 0.01)
    with pytest.raises(ValueError):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=1.0, mode="cayley"), 0.01)
    with pytest.raises(InvalidAxis):
        make_rotation(RotationSpec(axis=(math.nan, 0.0, 1.0), magnitude_coefficient=1.0), 0.01)
    with pytest.raises(ValueError):
        make_rotation(ROT, math.nan)
    with pytest.raises(ValueError):
        make_rotation(RotationSpec(axis=AXIS, magnitude_coefficient=math.nan), 0.01)


def test_rotation_renormalizes_nearly_unit_axis():
    off = (1.0 + 5e-9) / math.sqrt(3.0)
    R = make_rotation(RotationSpec(axis=(off, off, off), magnitude_coefficient=1.0), 0.01)
    assert is_rotation(R)


def test_green_uniaxial():
    E = SymTensor(0.005, 0.0, 0.0)
    state = deformation_from_green(E, Tensor3.identity())
    f = np.array(state.F.as_matrix())
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
    f = np.array(state.F.as_matrix())
    assert np.linalg.det(f) > 0.0
    # recover the rotation: R = F U^{-1} with U = (I+2E)^{1/2}
    stretch = spd_sqrt(SymTensor(1.0, 1.0, 1.0) + 2.0 * E)
    u = f @ np.linalg.inv(np.array(stretch.as_matrix()))
    assert np.max(np.abs(u - np.array(R.as_matrix()))) < 1e-11


def test_green_rejects_collapsed_metric():
    with pytest.raises(NotPositiveDefinite):
        deformation_from_green(SymTensor(-0.6, 0.0, 0.0), Tensor3.identity())


def test_green_rejects_non_rotation():
    stretch = Tensor3.from_matrix([[1.1, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        deformation_from_green(SymTensor(0.01, 0.0, 0.0), stretch)


def test_hencky_isotropic_density():
    for h in (0.01, -0.02, 0.1):
        state = deformation_from_hencky(SymTensor(h, h, h), Tensor3.identity())
        assert state.density_ratio == pytest.approx(math.exp(-3.0 * h), rel=1e-13)


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
    F = Tensor3.from_matrix([[1.1, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 1.0]])
    S = SymTensor(2.0, -1.0, 0.5)
    sig = sigma_from_piola(F, S)
    assert sig.xx == pytest.approx(2.2, rel=1e-15)
    assert sig.yy == pytest.approx(-0.9, rel=1e-15)
    assert sig.zz == pytest.approx(0.5, rel=1e-15)
    assert sig.xy == 0.0


def test_piola_identity_is_passthrough():
    S = SymTensor(1.0, 0.5, -0.25, 0.1, 0.0, 0.2)
    assert frobenius(sigma_from_piola(Tensor3.identity(), S) - S) == 0.0


def test_cauchy_diagonal_oracle():
    F = Tensor3.from_matrix([[1.2, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.8]])
    T = SymTensor(3.0, 1.0, -2.0)
    sig = sigma_from_cauchy(F, T)
    d = 1.2 * 0.8
    assert sig.xx == pytest.approx(d * 3.0 / 1.2, rel=1e-14)
    assert sig.yy == pytest.approx(d * 1.0, rel=1e-14)
    assert sig.zz == pytest.approx(d * -2.0 / 0.8, rel=1e-14)


def test_cauchy_rejects_singular():
    F = Tensor3.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(Singular):
        sigma_from_cauchy(F, SymTensor(1.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cauchy_rejects_non_finite(bad):
    F = Tensor3.from_matrix([[1.1, 0.1, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(Singular):
        sigma_from_cauchy(Tensor3((bad,) + F.data[1:]), SymTensor(1.0, 0.5, 0.2))
    with pytest.raises(InvalidParameter):
        sigma_from_cauchy(F, SymTensor(1.0, 0.5, 0.2, bad))


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
    state = deformation_from_green(SymTensor(4e-4, 3e-4, -2e-4, 1e-4, 0.0, 0.0), Tensor3.identity())
    assert frobenius(state.eps) < 1.2e-3
    assert density_linearization_gap(state) <= 5e-6


def test_delta0_measures_distance_to_identity():
    state = deformation_from_green(SymTensor(), Tensor3.identity())
    assert state.delta0 == 0.0
    state = deformation_from_green(SymTensor(0.01, 0.0, 0.0), Tensor3.identity())
    assert state.delta0 == pytest.approx(math.sqrt(1.02) - 1.0, rel=1e-12)
