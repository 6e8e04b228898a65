"""Cech filtrations: simplices valued at their smallest-enclosing-ball radius.

A simplex enters the filtration at the radius of the miniball of its
vertices (closed balls: the complex at radius r contains every simplex
whose value is <= r); an edge's value is half the root of its squared
length. Candidate simplices are enumerated only among cliques of the
edges of value <= r_max (`_edge_pairs`), which is exact: a simplex is
valued at least at each of its edges.

One builder serves every caller. `_component_filtrations` builds the
simplices of many components, of one cloud or of a batch of clouds, in
one batched numpy pass: edges and triangles are enumerated as arrays
from the neighbour pairs, triangle radii come from
`geometry._triangle_radii`, which is bit-equal to `miniball`, and higher
simplices grow through `_cofaces`. It returns arrays of vertices and
values per dimension. `_build` runs it on a whole cloud as one component
and sorts the result into a `FilteredComplex`.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import PointCloud, _near_pairs, _triangle_radii, miniball

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


def _cofaces(pts: np.ndarray, above: Mapping[int, set[int]],
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


def _edge_pairs(
        points: np.ndarray, sizes: Sequence[int], r_max: float,
        near: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The edges of Cech_{r_max} in each cloud of a batch: pairs i < j of value <= r_max.

    The clouds are stacked as `geometry._near_pairs` takes them, and pairs
    index the stack. An edge's value is half the root of its squared length
    (`_rows_dist2`, the squared distance `_dist2` takes). The neighbour
    query runs with a relative slack, so rounding in the k-d tree or in
    (2*r_max)**2 never drops an edge whose value is exactly r_max; the value
    test decides. `near`, if given, is the batch's `_near_pairs` at a cutoff
    of 2*r_max or more, and takes the place of the query: its candidates
    hold every edge, with the same squared lengths. Returns the pairs, in
    no fixed order, and their values.
    """
    pairs, d2 = _near_pairs(points, sizes, 2.0 * r_max) if near is None else near
    values = 0.5 * np.sqrt(d2)
    inside = values <= r_max
    return pairs[inside], values[inside]


def _component_filtrations(
        points: np.ndarray, edges: np.ndarray, edge_values: np.ndarray, labels: np.ndarray,
        keep: np.ndarray, r_max: float, max_dim: int, owner: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray | None]]:
    """Simplices of the kept components of one or more clouds, built in one batched pass.

    `edges` and `edge_values` are the edges of Cech_{r_max} (`_edge_pairs`),
    `labels` the connected components of that graph and `keep` a mask over
    labels; `owner` maps a label to its cloud, for the triangle cap.
    Returns, for q = 0..max_dim, the q-simplices of all kept components as
    rows of ascending global vertex indices, and their values, in no fixed
    order; and, per q, the facets of each q-simplex as an (m, q + 1) index
    array into the (q-1)-simplices, column j the facet without vertex j,
    for triangles, and None for the other dimensions. The
    simplices of one component, with their values, are those of the scalar
    reference builder in `tests/scalar_cech.py` (one `miniball` call per
    candidate simplex) run on its members taken as a sub-cloud in ascending
    index order: triangle radii are bit-equal to `miniball`'s
    (`_triangle_radii`).
    """
    kept = np.flatnonzero(keep[labels])  # ascending
    parts = [(kept[:, None], np.zeros(len(kept)))]  # (vertices, values) per dimension
    facets: list[np.ndarray | None] = [None]
    if max_dim >= 1:
        mine = keep[labels[edges[:, 0]]]
        edges, edge_values = edges[mine], edge_values[mine]
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        parts.append((edges, edge_values[order]))
        facets.append(None)
    if max_dim >= 2:
        triangles, triangle_values, faces = _triangles(points, edges, parts[1][1], r_max,
                                                       owner[labels[edges[:, 0]]])
        parts.append((triangles, triangle_values))
        facets.append(faces)
    if max_dim >= 3:
        above: dict[int, set[int]] = defaultdict(set)
        for i, j in edges.tolist():
            above[i].add(j)
        values = dict(zip(map(tuple, parts[2][0].tolist()), parts[2][1].tolist()))
        grown = list(_cofaces(points, above, values, list(values), r_max, max_dim))
        for q in range(3, max_dim + 1):
            of_q = [sv for sv in grown if len(sv[0]) == q + 1]
            parts.append((np.array([verts for verts, _ in of_q], dtype=np.intp).reshape(-1, q + 1),
                          np.array([value for _, value in of_q])))
            facets.append(None)
    return parts, facets


# Candidate triangles one cloud may need; `_triangles` also holds at most this
# many at once, at least 40 bytes each of index arrays. Figure-1 clouds at
# n = 1e5 need under 6,000 and `construct_witness(1, 10.0)` about 440,000; the
# k = 2 witness at theta = 1, one 2594-point component, would need 5.3e8.
_MAX_TRIANGLE_CANDIDATES = 5_000_000


def _triangles(points: np.ndarray, edges: np.ndarray, edge_values: np.ndarray, r_max: float,
               edge_clouds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangles of a lexsorted edge list with value <= r_max, their values and facets.

    For each edge (i, j), every edge (j, v) gives a candidate (i, j, v),
    kept if (i, v) is an edge too (binary search on the keys i*n + v). Its
    value is the largest of its miniball radius and its three edge values.
    Its facets are the edges (j, v), (i, v) and (i, j), as indices into
    `edges`: the facets without vertex i, j and v.
    Raises ConfigurationError, before allocating them, when the candidates
    of one cloud (`edge_clouds` numbers the cloud of each edge) number more than
    `_MAX_TRIANGLE_CANDIDATES`. Candidates are made for consecutive runs of
    edges, at most that many at a time, so a batch of many clouds takes no
    more memory than its largest allowed cloud.
    """
    if not len(edges):
        return np.zeros((0, 3), dtype=np.intp), np.zeros(0), np.zeros((0, 3), dtype=np.intp)
    n = len(points)
    first, second = edges[:, 0], edges[:, 1]
    count = np.bincount(first, minlength=n)
    start = np.cumsum(count) - count
    reps = count[second]
    candidates = int(np.bincount(edge_clouds, weights=reps).max())
    if candidates > _MAX_TRIANGLE_CANDIDATES:
        raise ConfigurationError(
            f"the filtration needs {candidates} candidate triangles, above the cap of "
            f"{_MAX_TRIANGLE_CANDIDATES}")
    keys = first.astype(np.int64) * n + second
    ends = np.cumsum(reps)
    runs = []  # (ij, jv, iv) of the triangles found from each run of edges lo..hi-1
    lo = 0
    while lo < len(edges):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _MAX_TRIANGLE_CANDIDATES, side="right")), lo + 1)
        run = slice(lo, hi)
        ij = np.repeat(np.arange(lo, hi), reps[run])
        jv = (start[second[ij]] + np.arange(done, int(ends[hi - 1]))
              - np.repeat(ends[run] - reps[run], reps[run]))
        wanted = first[ij].astype(np.int64) * n + second[jv]
        iv = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        hit = keys[iv] == wanted
        runs.append((ij[hit], jv[hit], iv[hit]))
        lo = hi
    ij, jv, iv = (np.concatenate(column) for column in zip(*runs))
    triangles = np.column_stack((first[ij], second[ij], second[jv]))
    values = np.maximum.reduce([_triangle_radii(points[triangles]),
                                edge_values[ij], edge_values[iv], edge_values[jv]])
    inside = values <= r_max
    return triangles[inside], values[inside], np.column_stack((jv[inside], iv[inside], ij[inside]))


def build_cech_filtration(cloud: PointCloud, r_max: float, max_dim: int,
                          force: bool = False) -> FilteredComplex:
    """Cech filtration of the cloud, truncated at radius r_max and dimension max_dim.

    Homology in degree k only needs simplices up to dimension k+1, and for
    point clouds in R^d nothing above degree d-1 survives, so caps beyond
    the ambient dimension are refused unless `force=True`. For max_dim >= 2
    a cloud too dense at 2*r_max raises ConfigurationError, before its
    triangles are enumerated, when they would need more than
    `_MAX_TRIANGLE_CANDIDATES` candidates.
    """
    if not (r_max > 0.0) or not math.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    return _build(cloud, r_max, max_dim, force)


def _build(cloud: PointCloud, r_max: float, max_dim: int, force: bool = False) -> FilteredComplex:
    # Internal entry point that additionally permits r_max == 0 (vertices
    # plus duplicate-point simplices only).
    if r_max < 0.0 or not math.isfinite(r_max):
        raise ValueError(f"r_max must be nonnegative and finite, got {r_max}")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    if max_dim > cloud.dim and not force:
        raise ValueError(
            f"max_dim={max_dim} exceeds the ambient dimension {cloud.dim}; "
            "degree-k homology needs simplices only up to dimension k+1 <= d. "
            "Pass force=True to build anyway.")
    parts, _ = _component_filtrations(cloud.points,
                                      *_edge_pairs(cloud.points, [len(cloud)], r_max),
                                      np.zeros(len(cloud), dtype=np.intp), np.array([True]),
                                      r_max, max_dim, np.array([0]))
    simplices = sorted(((verts, value) for rows, values in parts
                        for verts, value in zip(map(tuple, rows.tolist()), values.tolist())),
                       key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    return FilteredComplex(vertex_count=len(cloud), max_dim=max_dim,
                           simplices=tuple(simplices))
