"""Independent persistent-rank oracle for planar clouds in degree 1.

Shares no code with `cechlab.filtration` or `cechlab.persistence`. The
Cech complex at scale s is the disjoint union of its pieces over the
connected components of the geometric graph at 2s, so the rank is a sum
over components. For each component it uses

    beta_1^{r,s} = dim Z_1(K_r) - rank d_2(K_s) + rank of d_2(K_s) on the
                   rows of the edges outside K_r,

with dim Z_1(K_r) = E_r - V + C_r and the two boundary ranks from
Gaussian elimination over GF(2) on the dense rows of d_2. An edge enters at half its length, a
triangle at the radius of its smallest enclosing disk in closed form,
and every comparison is closed (a value equal to the scale is in).
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

# cKDTree's own distance rounding must never drop a pair whose half
# length is <= s; pairs are re-tested below with the oracle's own values.
_QUERY_SLACK = 1.0 + 1e-9


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a dense 0/1 matrix given as one bit mask per row.

    Gaussian elimination: each row is reduced by the rows kept so far,
    keyed by their leading bit, and kept if anything is left.
    """
    kept: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in kept:
                kept[lead] = row
                break
            row ^= kept[lead]
    return len(kept)


def triangle_radius(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> float:
    """Radius of the smallest disk holding three planar points.

    Half the longest side when the triangle is right or obtuse, the
    circumradius when it is acute.
    """
    ab = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    ac = (a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2
    bc = (b[0] - c[0]) ** 2 + (b[1] - c[1]) ** 2
    longest = max(ab, ac, bc)
    if 2.0 * longest >= ab + ac + bc:
        return 0.5 * longest ** 0.5
    area16 = 2.0 * (ab * ac + ac * bc + bc * ab) - (ab * ab + ac * ac + bc * bc)
    return max((ab * ac * bc / area16) ** 0.5, 0.5 * longest ** 0.5)


def components(points: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges (i < j, distance <= scale) and component labels at that scale."""
    n = len(points)
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(n, dtype=np.int64)
    pairs = cKDTree(points).query_pairs(scale * _QUERY_SLACK, output_type="ndarray")
    if len(pairs):
        length = np.sqrt(((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2).sum(axis=1))
        pairs = pairs[length <= scale]
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return pairs, labels


def _boundary_ranks(points: list[list[float]], edges: list[list[int]],
                    inside: list[bool], s: float) -> tuple[int, int]:
    """Rank of d_2(K_s) and of its rows outside K_r, for one component.

    `edges` are the component's edges of K_s as local index pairs i < j,
    and `inside` flags those that are already in K_r. Row e of d_2 is
    the bit mask of the triangles that have edge e as a face.
    """
    row_of = {(i, j): row for row, (i, j) in enumerate(edges)}
    above: list[set[int]] = [set() for _ in points]
    for i, j in edges:
        above[i].add(j)
    rows = [0] * len(edges)
    column = 0
    for (i, j), row in row_of.items():
        for k in above[i] & above[j]:
            if triangle_radius(points[i], points[j], points[k]) <= s:
                bit = 1 << column
                column += 1
                rows[row] |= bit
                rows[row_of[i, k]] |= bit
                rows[row_of[j, k]] |= bit
    return (gf2_rank(rows),
            gf2_rank(mask for mask, kept in zip(rows, inside) if not kept))


def persistent_rank(points: np.ndarray, r: float, s: float) -> int:
    """Rank of H_1(Cech_r) -> H_1(Cech_s) for planar points, r <= s."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"the oracle handles planar clouds, got shape {points.shape}")
    if not 0.0 <= r <= s:
        raise ValueError(f"need 0 <= r <= s, got r={r}, s={s}")
    edges, labels = components(points, 2.0 * s)
    if len(edges) < 3:
        return 0
    half = 0.5 * np.sqrt(((points[edges[:, 0]] - points[edges[:, 1]]) ** 2).sum(axis=1))
    inside = half <= r
    # dim Z_1(K_r) per component of K_s: E_r - V + C_r, where every
    # component of K_r lies inside exactly one component of K_s.
    n = len(points)
    inner = edges[inside]
    _, inner_labels = connected_components(
        coo_matrix((np.ones(len(inner)), (inner[:, 0], inner[:, 1])), shape=(n, n)),
        directed=False)
    count = labels.max() + 1
    first = np.unique(inner_labels, return_index=True)[1]
    cycles = (np.bincount(labels[inner[:, 0]], minlength=count)
              - np.bincount(labels, minlength=count)
              + np.bincount(labels[first], minlength=count))
    # Group vertices and edges by component, with component-local indices.
    edge_labels = labels[edges[:, 0]]
    by_vertex = np.argsort(labels, kind="stable")
    vertex_start = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=count))))
    local = np.empty(n, dtype=np.int64)
    local[by_vertex] = np.arange(n) - vertex_start[labels[by_vertex]]
    by_edge = np.argsort(edge_labels, kind="stable")
    edge_start = np.concatenate(([0], np.cumsum(np.bincount(edge_labels, minlength=count))))
    coords = points[by_vertex].tolist()
    local_edges = local[edges[by_edge]].tolist()
    local_inside = inside[by_edge].tolist()
    total = 0
    for label in np.flatnonzero(cycles > 0).tolist():
        v0, v1 = int(vertex_start[label]), int(vertex_start[label + 1])
        e0, e1 = int(edge_start[label]), int(edge_start[label + 1])
        full, outside = _boundary_ranks(coords[v0:v1], local_edges[e0:e1],
                                        local_inside[e0:e1], s)
        total += int(cycles[label]) - full + outside
    return total
