"""Cech filtrations: simplices valued at their smallest-enclosing-ball radius.

A simplex enters the filtration at the radius of the miniball of its
vertices (closed balls: the complex at radius r contains every simplex
whose value is <= r); an edge's value is half the root of its squared
length. Candidate simplices are enumerated only among cliques of the
edges of value <= r_max (`_edge_pairs`), which is exact: a simplex is
valued at least at each of its edges.

One builder serves every caller. `_component_filtrations` builds the
simplices of many components, of one cloud or of a batch of clouds, in
one batched numpy pass: edges come as arrays from the neighbour pairs,
and every higher dimension grows from the one below by one level of
`geometry._next_cliques`, which also gives each simplex's facets.
Triangle radii come from `geometry._triangle_radii`, which is bit-equal
to `miniball`, and larger simplices take one `miniball` call each. It
returns arrays of vertices, values and facets per dimension. `_build`
runs it on a whole cloud as one component and sorts the result into a
`FilteredComplex`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import PointCloud, _near_pairs, _next_cliques, _triangle_radii, miniball

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
    labels; `owner` maps a label to its cloud, for the candidate cap of
    `geometry._next_cliques`. Returns, for q = 0..max_dim, the q-simplices
    of all kept components as rows of ascending global vertex indices, in
    lexicographic order, and their values; and, per q, the facets of each
    q-simplex as an (m, q + 1) index array into the (q-1)-simplices, column
    j the facet without vertex j, for q >= 2, and None for vertices and
    edges. A q-simplex is valued at the largest of its miniball radius and
    its facets' values, and kept if that is <= r_max; the radius is
    computed only for cliques whose facets are all kept. The simplices of
    one component, with their values, are those of the scalar reference
    builder in `tests/scalar_cech.py` (one `miniball` call per candidate
    simplex) run on its members taken as a sub-cloud in ascending index
    order: triangle radii are bit-equal to `miniball`'s (`_triangle_radii`),
    and larger simplices call `miniball` on their vertices in ascending order.
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
    rows, faces, values = edges, edges[:, ::-1], parts[-1][1]
    for q in range(2, max_dim + 1):
        named = {2: "triangles", 3: "tetrahedra"}.get(q, f"{q}-simplices")
        rows, faces = _next_cliques(rows, faces, edges, owner[labels],
                                    f"the filtration needs {{}} candidate {named}")
        radii = (_triangle_radii(points[rows]) if q == 2 else
                 np.array([miniball(verts).radius for verts in points[rows].tolist()]))
        values = np.maximum.reduce([radii] + [values[column] for column in faces.T])
        inside = values <= r_max
        rows, faces, values = rows[inside], faces[inside], values[inside]
        parts.append((rows, values))
        facets.append(faces)
    return parts, facets


def build_cech_filtration(cloud: PointCloud, r_max: float, max_dim: int,
                          force: bool = False) -> FilteredComplex:
    """Cech filtration of the cloud, truncated at radius r_max and dimension max_dim.

    Homology in degree k only needs simplices up to dimension k+1, and for
    point clouds in R^d nothing above degree d-1 survives, so caps beyond
    the ambient dimension are refused unless `force=True`. For max_dim >= 2
    a cloud too dense at 2*r_max raises ConfigurationError, before the
    simplices of a dimension are enumerated, when they would need more than
    `geometry._MAX_CANDIDATES` candidates.
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
