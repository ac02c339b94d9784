"""Test helpers shared by several test modules: a ball sample and a rotation."""

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
