"""Test helpers shared by several test modules: a ball sample, a rotation and
the hydrostatic density solution."""

import math

import numpy as np

from strainlim.symtensor import SymTensor


def ball(rng, radius):
    """A SymTensor drawn uniformly from the Frobenius ball B(0, radius)."""
    v = rng.standard_normal(6)
    w = np.array([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])
    v *= radius * rng.random() ** (1.0 / 6.0) / np.linalg.norm(v * w)
    return SymTensor(v[0], v[1], v[2], v[3], v[4], v[5])


def rotation(q):
    """The proper rotation of the quaternion q (w, x, y, z), a (3, 3) array."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


def hydrostatic_root(spec, delta, s):
    """The strain e of the density solution e I at the stress s I."""
    # scalar fixed point e = (1-2nu) s / E_delta(e I), bisected on the
    # monotone residual g(e) = e - rhs(e); the modulus is the closed form
    # from det(I + 2e I) = (1 + 2e)^3
    half = -0.5 if spec.kind == "density_modulus_reciprocal" else 0.5

    def g(e):
        bracket = 1.0 + spec.a / delta * math.expm1(3.0 * half * math.log1p(2.0 * e))
        mod = spec.E0 * bracket / delta if half < 0.0 else spec.E0 / (delta * bracket)
        return e - (1.0 - 2.0 * spec.nu) * s / mod

    lo, hi = 0.0, spec.b * delta * 0.99 / math.sqrt(3.0)
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
