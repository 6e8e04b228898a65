"""Scalar reference Cech builder for the tests: one `miniball` call per candidate.

The package builds every filtration with the batched
`filtration._component_filtrations`. This builder shares none of its
simplex code: it takes the cloud's geometric graph at 2*r_max, widened by
a relative 1e-9 so that rounding in (2*r_max)**2 drops no pair, keeps an
edge when half the root of its squared length (`_dist2`) is <= r_max, and
grows every larger simplex from its facets with its own loop, valued at
the largest of its miniball radius and its facets' values.
"""

from __future__ import annotations

import math
from typing import Iterator

from cechlab.filtration import FilteredComplex
from cechlab.geometry import PointCloud, _dist2, geometric_graph, miniball


def cech_simplices(cloud: PointCloud, r_max: float,
                   max_dim: int) -> Iterator[tuple[tuple[int, ...], float]]:
    """Every simplex up to max_dim with value <= r_max, in no fixed order."""
    pts = cloud.as_tuples
    n = len(pts)
    for i in range(n):
        yield (i,), 0.0
    if max_dim == 0 or n < 2:
        return
    graph = geometric_graph(cloud, 2.0 * r_max * (1.0 + 1e-9))
    above = [set(nbrs) for nbrs in graph.adjacency_above]
    values: dict[tuple[int, ...], float] = {}
    for i, j in graph.edges:
        value = 0.5 * math.sqrt(_dist2(pts[i], pts[j]))
        if value <= r_max:
            values[(i, j)] = value
            yield (i, j), value
    frontier = list(values)
    while frontier and len(frontier[0]) <= max_dim:
        grown: list[tuple[int, ...]] = []
        for simplex in frontier:
            common = set.intersection(*(above[v] for v in simplex))
            for v in sorted(common):
                candidate = simplex + (v,)
                facets = [candidate[:omit] + candidate[omit + 1:] for omit in range(len(candidate))]
                if any(facet not in values for facet in facets):
                    continue  # a facet is absent, so the simplex is too
                value = max([miniball([pts[u] for u in candidate]).radius]
                            + [values[facet] for facet in facets])
                if value <= r_max:
                    values[candidate] = value
                    grown.append(candidate)
                    yield candidate, value
        frontier = grown


def scalar_build(cloud: PointCloud, r_max: float, max_dim: int) -> FilteredComplex:
    """The filtration of `build_cech_filtration` (any r_max >= 0, any max_dim)."""
    simplices = sorted(cech_simplices(cloud, r_max, max_dim),
                       key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    return FilteredComplex(vertex_count=len(cloud), max_dim=max_dim,
                           simplices=tuple(simplices))
