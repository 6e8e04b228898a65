"""Cech filtrations: simplices valued at their smallest-enclosing-ball radius.

A simplex enters the filtration at the radius of the miniball of its
vertices (closed balls: the complex at radius r contains every simplex
whose value is <= r). Candidate simplices are enumerated only among
cliques of the geometric graph at scale 2*r_max, which is exact: any
simplex with miniball radius <= r_max has all pairwise distances
<= 2*r_max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .geometry import PointCloud, _dist2, geometric_graph, miniball

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
    frontier: list[tuple[int, ...]] = []
    for i, j in graph.edges:
        value = 0.5 * math.sqrt(_dist2(pts[i], pts[j]))
        if value <= r_max:
            values[(i, j)] = value
            frontier.append((i, j))
            yield (i, j), value
    for _ in range(2, max_dim + 1):
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
