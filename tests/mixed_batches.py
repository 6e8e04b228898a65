"""Batches of clouds for the tests of the batched neighbour layer and its callers."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from cechlab.geometry import _GROUP_POINTS

S = 0.125  # a dyadic lattice step: the lattice distances s, sqrt(2)*s, ... square exactly


def cubic_lattice(d: int, count: int) -> np.ndarray:
    """The first `count` points of the cubic lattice of step S in R^d, in row order."""
    side = math.ceil(count ** (1.0 / d)) + 1
    return np.array(list(product(range(side), repeat=d)), dtype=np.float64)[:count] * S


def mixed_batch(d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Clouds that stress a grouped neighbour query, all laid over each other.

    Empty and one-point clouds, duplicate points within a cloud and across
    two equal clouds, exact-tie lattices of one point less than, exactly and
    one more than the group size, and small random clouds.
    """
    tiny = rng.random((20, d)) * 0.5
    return [np.zeros((0, d)), cubic_lattice(d, _GROUP_POINTS - 1), rng.random((1, d)),
            np.repeat(rng.random((3, d)) * 0.2, 2, axis=0), tiny, tiny, cubic_lattice(d, 30),
            cubic_lattice(d, _GROUP_POINTS), rng.random((2, d)) * 0.1, cubic_lattice(d, 30),
            np.zeros((0, d)), cubic_lattice(d, _GROUP_POINTS + 1), rng.random((40, d)) * 0.8,
            rng.random((1, d))] + [rng.random((int(n), d)) for n in rng.integers(2, 9, 12)]
