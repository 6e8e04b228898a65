"""Cech filtrations: simplices valued at their smallest-enclosing-ball radius.

A simplex enters the filtration at the radius of the miniball of its
vertices (closed balls: the complex at radius r contains every simplex
whose value is <= r). Candidate simplices are enumerated only among
cliques of the geometric graph at scale 2*r_max, which is exact: any
simplex with miniball radius <= r_max has all pairwise distances
<= 2*r_max.

`_build` grows one cloud's complex with a scalar `miniball` call per
candidate simplex. `_component_filtrations` builds the complexes of many
components of a cloud in one batched numpy pass: edges and
triangles are enumerated as arrays from the cloud's neighbour pairs, and
triangle radii come from `geometry._triangle_radii`, which is bit-equal
to `miniball`. Each of its complexes equals `_build` of that component.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import (PointCloud, _dist2, _rows_dist2, _triangle_radii, geometric_graph,
                       miniball)

__all__ = ["FilteredComplex", "build_cech_filtration"]


@dataclass(frozen=True)
class FilteredComplex:
    """Simplices sorted by (value, dimension, lexicographic vertex order).

    Vertices are index tuples into the underlying cloud; every face of a
    simplex is present with a value no larger than the simplex's own.
    """

    vertex_count: int
    max_dim: int
    simplices: tuple[tuple[tuple[int, ...], float], ...]

    def __len__(self) -> int:
        return len(self.simplices)

    def dimension_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for verts, _ in self.simplices:
            q = len(verts) - 1
            counts[q] = counts.get(q, 0) + 1
        return counts

    def validate(self) -> None:
        """Check sortedness, face closure and value monotonicity."""
        index: dict[tuple[int, ...], float] = {}
        prev_key = None
        for verts, value in self.simplices:
            if list(verts) != sorted(verts):
                raise ValueError(f"simplex {verts} is not sorted")
            if len(verts) - 1 > self.max_dim:
                raise ValueError(f"simplex {verts} exceeds max_dim={self.max_dim}")
            key = (value, len(verts), verts)
            if prev_key is not None and key < prev_key:
                raise ValueError(f"simplices out of filtration order near {verts}")
            prev_key = key
            if len(verts) == 1 and value != 0.0:
                raise ValueError(f"vertex {verts} has nonzero value {value}")
            for omit in range(len(verts)):
                face = verts[:omit] + verts[omit + 1:]
                if not face:
                    continue
                if face not in index:
                    raise ValueError(f"face {face} of {verts} is missing")
                if index[face] > value:
                    raise ValueError(
                        f"face {face} (value {index[face]}) enters after {verts} (value {value})")
            index[verts] = value


def _cech_simplices(cloud: PointCloud, r_max: float,
                    max_dim: int) -> Iterator[tuple[tuple[int, ...], float]]:
    pts = cloud.as_tuples
    n = len(pts)
    for i in range(n):
        yield (i,), 0.0
    if max_dim == 0 or n < 2:
        return
    graph = geometric_graph(cloud, 2.0 * r_max)
    above = [set(nbrs) for nbrs in graph.adjacency_above]
    values: dict[tuple[int, ...], float] = {}
    for i, j in graph.edges:
        value = 0.5 * math.sqrt(_dist2(pts[i], pts[j]))
        if value <= r_max:
            values[(i, j)] = value
            yield (i, j), value
    yield from _cofaces(pts, above, values, list(values), r_max, max_dim)


def _cofaces(pts: Sequence[Sequence[float]], above: Mapping[int, set[int]] | Sequence[set[int]],
             values: dict[tuple[int, ...], float], frontier: list[tuple[int, ...]],
             r_max: float, max_dim: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Simplices grown from `frontier` one dimension at a time up to `max_dim`.

    A candidate adds to a simplex a larger vertex adjacent to all of its
    vertices (`above[u]` holds u's larger neighbours). Its value is the
    largest of its miniball radius and its facets' values; it is absent if a
    facet is. New simplices are recorded in `values`.
    """
    while frontier and len(frontier[0]) <= max_dim:
        next_frontier: list[tuple[int, ...]] = []
        for simplex in frontier:
            common = above[simplex[0]]
            for v in simplex[1:]:
                common = common & above[v]
                if not common:
                    break
            base_value = values[simplex]
            for v in sorted(common):
                candidate = simplex + (v,)
                value = miniball([pts[u] for u in candidate]).radius
                if value < base_value:
                    value = base_value
                for omit in range(len(candidate) - 1):
                    face = candidate[:omit] + candidate[omit + 1:]
                    face_value = values.get(face)
                    if face_value is None:
                        value = math.inf  # a facet is absent, so the simplex is too
                        break
                    if face_value > value:
                        value = face_value
                if value <= r_max:
                    values[candidate] = value
                    next_frontier.append(candidate)
                    yield candidate, value
        frontier = next_frontier


def _component_filtrations(points: np.ndarray, pairs: np.ndarray, labels: np.ndarray,
                           keep: np.ndarray, r_max: float,
                           max_dim: int) -> list[tuple[np.ndarray, FilteredComplex]]:
    """Filtrations of the kept components of a cloud, built in one batched pass.

    `pairs` holds the cloud's pairs i < j at distance <= 2*r_max, `labels`
    the connected components of that graph and `keep` a mask over labels.
    Returns (members, complex) for each kept component in ascending label
    order. The complex equals `_build` of the members, taken as a sub-cloud
    in ascending index order: edges pass the same closed test on the same
    squared distance, triangle radii are bit-equal to `miniball`'s
    (`_triangle_radii`), higher simplices grow through the same `_cofaces`,
    and local indices keep the order of the global ones.
    """
    kept = np.flatnonzero(keep[labels])  # ascending
    by_label = kept[np.argsort(labels[kept], kind="stable")]
    sizes = np.bincount(labels[kept], minlength=len(keep))
    starts = np.cumsum(sizes) - sizes
    local = np.zeros(len(points), dtype=np.intp)
    local[by_label] = np.arange(len(kept)) - starts[labels[by_label]]
    parts = [(kept[:, None], np.zeros(len(kept)))]  # (vertices, values) per dimension
    if max_dim >= 1:
        edges = pairs[keep[labels[pairs[:, 0]]]]
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        d2 = _rows_dist2(points[edges[:, 0]], points[edges[:, 1]])
        inside = d2 <= (2.0 * r_max) * (2.0 * r_max)  # geometric_graph's closed test
        edges = edges[inside]
        parts.append((edges, 0.5 * np.sqrt(d2[inside])))
    if max_dim >= 2:
        parts.append(_triangles(points, edges, parts[1][1], r_max))
    if max_dim >= 3 and len(parts[2][0]):
        above: dict[int, set[int]] = defaultdict(set)
        for i, j in edges.tolist():
            above[i].add(j)
        values = dict(zip(map(tuple, parts[2][0].tolist()), parts[2][1].tolist()))
        grown = list(_cofaces(points, above, values, list(values), r_max, max_dim))
        for q in range(3, max_dim + 1):
            of_q = [sv for sv in grown if len(sv[0]) == q + 1]
            parts.append((np.array([verts for verts, _ in of_q], dtype=np.intp).reshape(-1, q + 1),
                          np.array([value for _, value in of_q])))

    # One sort over all simplices by (component, value, dimension, vertices).
    items: list[tuple[tuple[int, ...], float]] = []
    columns = np.full((sum(len(v) for v, _ in parts), max_dim + 1), -1, dtype=np.intp)
    row = 0
    for verts, values in parts:
        loc = local[verts]
        items.extend(zip(map(tuple, loc.tolist()), values.tolist()))
        columns[row:row + len(loc), :loc.shape[1]] = loc
        row += len(loc)
    component = np.concatenate([labels[verts[:, 0]] for verts, _ in parts])
    value = np.concatenate([values for _, values in parts])
    dim = np.concatenate([np.full(len(verts), verts.shape[1]) for verts, _ in parts])
    order = np.lexsort(tuple(columns[:, c] for c in range(max_dim, -1, -1))
                       + (dim, value, component))
    ordered = [items[i] for i in order.tolist()]
    counts = np.bincount(component, minlength=len(keep))
    firsts = np.cumsum(counts) - counts
    out = []
    for label in np.flatnonzero(keep).tolist():
        simplices = tuple(ordered[firsts[label]:firsts[label] + counts[label]])
        out.append((by_label[starts[label]:starts[label] + sizes[label]],
                    FilteredComplex(vertex_count=int(sizes[label]), max_dim=max_dim,
                                    simplices=simplices)))
    return out


# Candidate triangles `_triangles` may enumerate at once; each takes at least
# 40 bytes of index arrays. Figure-1 clouds at n = 1e5 need under 6,000 and
# `construct_witness(1, 10.0)` about 440,000; the k = 2 witness at theta = 1,
# one 2594-point component, would need 5.3e8.
_MAX_TRIANGLE_CANDIDATES = 5_000_000


def _triangles(points: np.ndarray, edges: np.ndarray, edge_values: np.ndarray,
               r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Triangles of a lexsorted edge list with value <= r_max, and their values.

    For each edge (i, j), every edge (j, v) gives a candidate (i, j, v),
    kept if (i, v) is an edge too (binary search on the keys i*n + v). Its
    value is the largest of its miniball radius and its three edge values.
    Raises ConfigurationError, before allocating them, when the candidates
    number more than `_MAX_TRIANGLE_CANDIDATES`.
    """
    n = len(points)
    first, second = edges[:, 0], edges[:, 1]
    count = np.bincount(first, minlength=n)
    start = np.cumsum(count) - count
    reps = count[second]
    candidates = int(reps.sum())
    if candidates > _MAX_TRIANGLE_CANDIDATES:
        raise ConfigurationError(
            f"the filtration needs {candidates} candidate triangles, above the cap of "
            f"{_MAX_TRIANGLE_CANDIDATES}")
    ij = np.repeat(np.arange(len(edges)), reps)
    jv = start[second[ij]] + np.arange(len(ij)) - np.repeat(np.cumsum(reps) - reps, reps)
    keys = first.astype(np.int64) * n + second
    wanted = first[ij].astype(np.int64) * n + second[jv]
    iv = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    found = keys[iv] == wanted
    ij, jv, iv = ij[found], jv[found], iv[found]
    triangles = np.column_stack((first[ij], second[ij], second[jv]))
    values = np.maximum.reduce([_triangle_radii(points[triangles]),
                                edge_values[ij], edge_values[iv], edge_values[jv]])
    inside = values <= r_max
    return triangles[inside], values[inside]


def build_cech_filtration(cloud: PointCloud, r_max: float, max_dim: int,
                          force: bool = False) -> FilteredComplex:
    """Cech filtration of the cloud, truncated at radius r_max and dimension max_dim.

    Homology in degree k only needs simplices up to dimension k+1, and for
    point clouds in R^d nothing above degree d-1 survives, so caps beyond
    the ambient dimension are refused unless `force=True`.
    """
    if not (r_max > 0.0) or not math.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    return _build(cloud, r_max, max_dim, force)


def _build(cloud: PointCloud, r_max: float, max_dim: int, force: bool = False) -> FilteredComplex:
    # Internal entry point that additionally permits r_max == 0 (vertices
    # plus duplicate-point simplices only), used by Betti queries at r = 0.
    if r_max < 0.0 or not math.isfinite(r_max):
        raise ValueError(f"r_max must be nonnegative and finite, got {r_max}")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    if max_dim > cloud.dim and not force:
        raise ValueError(
            f"max_dim={max_dim} exceeds the ambient dimension {cloud.dim}; "
            "degree-k homology needs simplices only up to dimension k+1 <= d. "
            "Pass force=True to build anyway.")
    simplices = sorted(_cech_simplices(cloud, r_max, max_dim),
                       key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    return FilteredComplex(vertex_count=len(cloud), max_dim=max_dim,
                           simplices=tuple(simplices))
