"""A dense rank oracle for the tests: `persistent_betti` by Gaussian elimination.

`persistent_betti_oracle` is an independent check that never touches
the reduction: with K = Cech_r and L = Cech_{theta*r} (theta >= 1), it
computes by dense Gaussian elimination

    dim Z_k(K) - rank d_{k+1}(L) + rank of d_{k+1}(L) on the rows outside K,

the rank of H_k(K) -> H_k(L): the image is Z_k(K) modulo the boundaries
of L that lie in K, a space of dimension rank d_{k+1}(L) minus the rank
of its rows outside K.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from cechlab.geometry import PointCloud, _dist2, miniball
from cechlab.persistence import GF2, FieldSpec

_ORACLE_MAX_POINTS = 16


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    m = np.mod(matrix, p).astype(np.int64)
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        mask = m[:, col] != 0
        mask[rank] = False
        if mask.any():
            m[mask] = (m[mask] - np.outer(m[mask, col], m[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def persistent_betti_oracle(cloud: PointCloud, r: float, theta: float, k: int,
                            field_spec: FieldSpec = GF2) -> int:
    """`persistent_betti` by dense boundary-matrix ranks; no reduction code shared.

    Values every subset of 1..k+2 points by the filtration's rules (an edge
    at half the root of its squared length, which can differ from the
    pair's miniball radius in the last bit; a larger simplex at the largest
    of its miniball radius and its facets' values, and absent when a facet
    is absent from Cech_{theta*r}) and computes the rank by
    the module docstring's dense formula, so it is only usable for small
    clouds (at most 16 points). theta = 1 gives the Betti number.
    """
    n = len(cloud)
    if n > _ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to {_ORACLE_MAX_POINTS} points, got {n}")
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be a finite nonnegative real, got {r}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 0:
        raise ValueError(f"homology degree must be nonnegative, got {k}")
    s = theta * r
    pts = cloud.as_tuples
    values: list[dict[tuple[int, ...], float]] = []  # the q-simplices of K_s, q = 0..k+1
    for q in range(k + 2):
        layer = {}
        for verts in combinations(range(n), q + 1):
            if q == 0:
                value = 0.0
            elif q == 1:
                value = 0.5 * math.sqrt(_dist2(pts[verts[0]], pts[verts[1]]))
            else:
                facets = [verts[:i] + verts[i + 1:] for i in range(q + 1)]
                if any(facet not in values[-1] for facet in facets):
                    continue  # a facet is absent, so the simplex is too
                value = max([miniball([pts[v] for v in verts]).radius]
                            + [values[-1][facet] for facet in facets])
            if value <= s:
                layer[verts] = value
        values.append(layer)

    def simplices(q: int, radius: float) -> list[tuple[int, ...]]:
        return [verts for verts, value in values[q].items() if value <= radius] if q >= 0 else []

    def boundary(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]]) -> np.ndarray:
        row_index = {verts: i for i, verts in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, verts in enumerate(cols):
            for omit in range(len(verts)):
                face = verts[:omit] + verts[omit + 1:]
                if face in row_index:
                    mat[row_index[face], j] = (-1) ** omit
        return mat

    p = field_spec.characteristic
    inner = simplices(k, r)
    cycles = len(inner) - _rank_mod_p(boundary(simplices(k - 1, r), inner), p)
    outer = simplices(k, s)
    fill = boundary(outer, simplices(k + 1, s))
    outside = np.array([values[k][verts] > r for verts in outer], dtype=bool)
    return cycles - _rank_mod_p(fill, p) + _rank_mod_p(fill[outside], p)
