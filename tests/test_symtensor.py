import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainlim import symtensor
from strainlim.errors import (
    InvalidParameter,
    NoConvergence,
    NotPositiveDefinite,
    OutOfDomain,
    Singular,
)
from strainlim.symtensor import (
    Spectrum,
    SymTensor,
    central_differences,
    det,
    eig_sym,
    frobenius,
    inner,
    inverse,
    is_rotation,
    spd_sqrt,
    sym_exp,
    sym_log,
    trace,
)


def _sym(rng, scale=1.0):
    v = rng.standard_normal(6) * scale
    return SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])


def test_frobenius_diagonal():
    assert frobenius(SymTensor(1.0, 2.0, 2.0)) == 3.0


def test_frobenius_counts_offdiagonal_twice():
    assert frobenius(SymTensor(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)) == math.sqrt(2.0)


def test_trace_and_inner():
    A = SymTensor(1.0, 2.0, 3.0, 0.5, 0.0, 0.0)
    assert trace(A) == 6.0
    # inner doubles the off-diagonal products
    B = SymTensor(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert inner(A, B) == 1.0
    assert inner(A, A) == pytest.approx(frobenius(A) ** 2, rel=1e-15)


def test_det_diagonal():
    assert det(SymTensor(1.0, 2.0, 3.0)) == 6.0


def test_det_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = _sym(rng)
        assert det(A) == pytest.approx(np.linalg.det(np.array(A.as_matrix())), abs=1e-12)


def test_from_matrix_averages_asymmetry():
    m = [[1.0, 0.2, 0.0], [0.4, 2.0, 0.0], [0.0, 0.0, 3.0]]
    A = SymTensor.from_matrix(m)
    assert A.xy == pytest.approx(0.3)


def test_as_matrix_is_exactly_symmetric():
    A = SymTensor(1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
    m = A.as_matrix()
    for i in range(3):
        for j in range(3):
            assert m[i][j] == m[j][i]


def test_arithmetic():
    A = SymTensor(1.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    B = SymTensor(0.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    assert (A + B).xy == 3.0
    assert (A - B).yy == -1.0
    assert (2.0 * A).xy == 4.0
    assert (-A).xx == -1.0


# components below ~1e-150 square to nothing inside the Frobenius sum, so
# keep the strategy away from that underflow regime
_comp = st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_comp for _ in range(6)]))
def test_trace_bounded_by_root3_frobenius(comps):
    A = SymTensor(*comps)
    assert abs(trace(A)) <= math.sqrt(3.0) * frobenius(A) * (1.0 + 1e-12)


def test_trace_bound_random_sweep():
    rng = np.random.default_rng(5)
    for _ in range(10000):
        A = _sym(rng, scale=10.0)
        assert abs(trace(A)) <= math.sqrt(3.0) * frobenius(A)


def test_eig_sym_diagonal():
    spec = eig_sym(SymTensor(3.0, 1.0, 2.0))
    assert spec.eigenvalues == pytest.approx((3.0, 2.0, 1.0), abs=1e-15)


def test_eig_sym_reconstructs_known_spectrum():
    # build A = Q diag(3, 2, 1) Q^T from a known rotation and recover it
    c, s = math.cos(0.7), math.sin(0.7)
    q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a = q @ np.diag([3.0, 2.0, 1.0]) @ q.T
    spec = eig_sym(SymTensor.from_matrix(a.tolist()))
    assert spec.eigenvalues == pytest.approx((3.0, 2.0, 1.0), abs=1e-13)
    v = spec.frame
    assert np.allclose(v @ np.diag(spec.eigenvalues) @ v.T, a, atol=1e-13)
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-13)


def test_eig_sym_descending_and_orthonormal_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        A = _sym(rng)
        spec = eig_sym(A)
        e = spec.eigenvalues
        assert e[0] >= e[1] >= e[2]
        v = spec.frame
        assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-13
        recon = v @ np.diag(e) @ v.T
        assert np.max(np.abs(recon - np.array(A.as_matrix()))) < 1e-13 * max(1.0, frobenius(A))


def test_eig_sym_repeated_eigenvalues():
    spec = eig_sym(SymTensor(2.0, 2.0, 2.0))
    assert spec.eigenvalues == (2.0, 2.0, 2.0)


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(31)
    for _ in range(200):
        # SPD with condition number <= 1e6
        evals = 10.0 ** rng.uniform(-3, 3, size=3)
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        c = q @ np.diag(evals) @ q.T
        C = SymTensor.from_matrix(c.tolist())
        X = spd_sqrt(C)
        xm = np.array(X.as_matrix())
        assert np.max(np.abs(xm @ xm - c)) <= 1e-12 * (1.0 + frobenius(C))


def test_spd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        spd_sqrt(SymTensor(1.0, 1.0, -0.5))


def test_log_exp_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        evals = 10.0 ** rng.uniform(-3, 3, size=3)
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        b = q @ np.diag(evals) @ q.T
        B = SymTensor.from_matrix(b.tolist())
        back = sym_exp(sym_log(B))
        assert frobenius(back - B) <= 1e-11 * max(1.0, frobenius(B))


def test_exp_log_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(200):
        H = _sym(rng, scale=0.5)
        back = sym_log(sym_exp(H))
        assert frobenius(back - H) <= 1e-11 * max(1.0, frobenius(H))


def test_sym_log_rejects_nonpositive():
    with pytest.raises(NotPositiveDefinite):
        sym_log(SymTensor(1.0, 0.0, 1.0))


def test_inverse_sym():
    A = SymTensor(2.0, 3.0, 4.0, 0.1, 0.0, 0.2)
    prod = A.as_matrix() @ inverse(A.as_matrix())
    assert np.max(np.abs(prod - np.eye(3))) < 1e-14


def test_inverse_general_matrix():
    m = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.max(np.abs(m @ inverse(m) - np.eye(3))) < 1e-14


def test_det_and_inverse_of_a_general_matrix_match_numpy():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        assert det(m) == pytest.approx(np.linalg.det(m), rel=1e-12, abs=1e-14)
        assert np.allclose(inverse(m), np.linalg.inv(m), rtol=1e-9, atol=1e-12)


def test_inverse_singular_raises():
    with pytest.raises(Singular):
        inverse(SymTensor(1.0, 1.0, 0.0).as_matrix())


def test_central_differences_are_exact_on_quadratics_and_linear_maps():
    rng = np.random.default_rng(5)
    point = _sym(rng)
    x0 = np.array(point.components())
    q, b, A = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal((6, 6))
    # a central quotient has no truncation error on a quadratic
    grad = central_differences(lambda P: [float(q @ np.square(x) + b @ x) for x in P], point, 1e-3)
    assert grad == pytest.approx(2.0 * q * x0 + b, rel=1e-9, abs=1e-9)
    jac = np.transpose(central_differences(lambda P: [A @ x for x in P], point, 1e-3))
    assert np.allclose(jac, A, rtol=1e-10, atol=1e-10)


def test_is_rotation():
    assert is_rotation(np.eye(3))
    c, s = math.cos(0.3), math.sin(0.3)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert is_rotation(R)
    # reflection: orthogonal but det -1
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(np.diag([2.0, 1.0, 1.0]))
    # R^T R overflows: not a rotation, and no numpy warning
    assert not is_rotation(np.full((3, 3), 1e200))


# --- non-finite input ---------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 4])
@pytest.mark.parametrize("fn", [eig_sym, spd_sqrt, sym_log, sym_exp])
def test_spectral_functions_reject_non_finite(fn, slot, bad):
    comps = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]
    comps[slot] = bad
    with pytest.raises(InvalidParameter):
        fn(SymTensor(*comps))


@pytest.mark.parametrize("fn", [eig_sym, spd_sqrt, sym_log, sym_exp])
def test_eigenvalues_beyond_the_float_range_are_out_of_domain(fn):
    # finite entries whose largest eigenvalue (about 5e308) overflows
    with pytest.raises(OutOfDomain, match="overflow"):
        fn(SymTensor(*[1.7e308] * 6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sym", [True, False])
def test_inverse_rejects_non_finite(sym, bad):
    A = (SymTensor(bad, 1.0, 1.0).as_matrix() if sym
         else np.array([[1.0, bad, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(Singular):
        inverse(A)


def test_sym_exp_overflow_names_the_eigenvalue():
    assert math.isfinite(sym_exp(SymTensor(700.0, 0.0, 0.0)).xx)
    with pytest.raises(OutOfDomain, match="1000.0"):
        sym_exp(SymTensor(1000.0, 0.0, 0.0))


def test_positivity_check_rejects_nan_spectrum(monkeypatch):
    nan_spectrum = Spectrum((math.nan,) * 3, np.eye(3))
    monkeypatch.setattr(symtensor, "eig_sym", lambda A: nan_spectrum)
    for fn in (spd_sqrt, sym_log):
        with pytest.raises(NotPositiveDefinite):
            fn(SymTensor.identity())


def test_eig_sym_reports_lapack_failure(monkeypatch):
    def failing_eigh(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        eig_sym(SymTensor.identity())


# --- differential test against the cyclic Jacobi solver eig_sym replaced --------


def _jacobi_eig(A):
    """The former eig_sym: cyclic Jacobi sweeps to off-diagonal norm <= 1e-14 |A|."""
    norm_a = frobenius(A)
    m = A.as_matrix()
    v = np.eye(3)
    for _ in range(50):
        off = math.sqrt(2.0 * (m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2))
        if off <= 1e-14 * norm_a:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[p, q]
            if apq == 0.0:
                continue
            theta = (m[q, q] - m[p, p]) / (2.0 * apq)
            if theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = 1.0 / (theta - math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            g = np.eye(3)
            g[p, p] = c
            g[q, q] = c
            g[p, q] = s
            g[q, p] = -s
            m = g.T @ m @ g
            v = v @ g
    evals = np.diag(m).copy()
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    v = v[:, order]
    for j in range(3):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return evals, v


def _from_spectrum(rng, lam):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return SymTensor.from_matrix((q @ np.diag(lam) @ q.T).tolist())


def _assert_matches_jacobi(A):
    spec = eig_sym(A)
    w, v = _jacobi_eig(A)
    e = np.array(spec.eigenvalues)
    scale = np.max(np.abs(w))
    assert np.max(np.abs(e - w)) <= 1e-13 * scale
    # each eigenvector is determined to about eps |A| / (its eigenvalue gap)
    frame = spec.frame
    signs = np.where((frame * v).sum(axis=0) < 0.0, -1.0, 1.0)
    for j in range(3):
        gap = min(abs(w[j] - w[k]) for k in range(3) if k != j)
        assert np.max(np.abs(frame[:, j] - signs[j] * v[:, j])) <= 1e-13 * scale / max(gap, 1e-300)


def _assert_maps_match_jacobi(A, maps):
    w, v = _jacobi_eig(A)
    for fn, scalar in maps:
        ref = SymTensor.from_matrix(((v * [scalar(x) for x in w]) @ v.T).tolist())
        assert frobenius(fn(A) - ref) <= 1e-13 * frobenius(ref)


_ALL_MAPS = ((spd_sqrt, math.sqrt), (sym_log, math.log), (sym_exp, math.exp))


def test_eig_sym_matches_jacobi_on_random_matrices():
    rng = np.random.default_rng(101)
    for _ in range(300):
        A = _sym(rng)
        _assert_matches_jacobi(A)
        _assert_maps_match_jacobi(A * 0.5, _ALL_MAPS[2:])
    for _ in range(300):
        A = _from_spectrum(rng, 10.0 ** rng.uniform(-1, 1, size=3))
        _assert_matches_jacobi(A)
        _assert_maps_match_jacobi(A, _ALL_MAPS)


def test_eig_sym_matches_jacobi_on_nearly_repeated_spectra():
    rng = np.random.default_rng(103)
    for _ in range(300):
        # a pair split by 1e-12..1e-4 relative, and a third eigenvalue apart
        # from it so that no map result is close to zero
        b = 10.0 ** rng.uniform(-1.0, -0.3)
        lam = [b, b * (1.0 + 10.0 ** rng.uniform(-12, -4)), 10.0 ** rng.uniform(0.3, 1.0)]
        A = _from_spectrum(rng, rng.permutation(lam))
        _assert_matches_jacobi(A)
        _assert_maps_match_jacobi(A, _ALL_MAPS)


@pytest.mark.parametrize("A", [SymTensor(3.0, 1.0, 2.0), SymTensor(2.0, 2.0, 2.0)])
def test_eig_sym_matches_jacobi_exactly_on_diagonal_input(A):
    spec = eig_sym(A)
    w, v = _jacobi_eig(A)
    assert spec.eigenvalues == tuple(w.tolist())
    assert np.array_equal(spec.frame, v)
    for fn, scalar in _ALL_MAPS:
        assert fn(A) == SymTensor.from_matrix(((v * [scalar(x) for x in w]) @ v.T).tolist())
