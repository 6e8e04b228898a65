"""Scalar references for the tests: a Cech builder and a persistence reduction.

The package builds every filtration with the batched
`filtration._component_filtrations`. `scalar_build` shares none of its
simplex code: it takes the cloud's geometric graph at 2*r_max, widened by
a relative 1e-9 so that rounding in (2*r_max)**2 drops no pair, keeps an
edge when half the root of its squared length (`_dist2`) is <= r_max, and
grows every larger simplex from its facets with its own loop, valued at
the largest of its miniball radius and its facets' values.

The package reads every persistence pair off `persistence._pivot_rows`.
`scalar_persistence` shares none of its code: it reduces the whole
complex's boundary matrix column by column over F_p, rows and columns
numbered by position in the filtration, with its own loop.

`validate` checks a `FilteredComplex`'s order, face closure and values.
"""

from __future__ import annotations

import math
from typing import Iterator

from cechlab.filtration import FilteredComplex
from cechlab.geometry import GeometricGraph, PointCloud, _dist2, geometric_graph, miniball
from cechlab.persistence import GF2, FieldSpec, PersistenceDiagram


def adjacency_above(graph: GeometricGraph) -> list[set[int]]:
    """Each point's neighbours with a larger index, for clique growth."""
    above: list[set[int]] = [set() for _ in range(len(graph.cloud))]
    for i, j in graph.edges:
        above[i].add(j)
    return above


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
    above = adjacency_above(graph)
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


def scalar_persistence(complex_: FilteredComplex,
                       field_spec: FieldSpec = GF2) -> PersistenceDiagram:
    """The diagram of `compute_persistence`, by standard column reduction with clearing.

    Dimensions are reduced top down in the complex's own order; a column
    whose simplex was paired as a birth by the dimension above is skipped.
    Over F_2 a column is a bitmask over the whole complex's indices, over
    F_p a row -> coefficient dict. A missing face raises KeyError.
    """
    simplices = complex_.simplices
    index_of = {verts: i for i, (verts, _) in enumerate(simplices)}
    by_dim: dict[int, list[int]] = {}
    for i, (verts, _) in enumerate(simplices):
        by_dim.setdefault(len(verts) - 1, []).append(i)
    p = field_spec.characteristic
    pairs: dict[int, int] = {}  # birth index -> death index
    for q in range(max(by_dim, default=0), 0, -1):
        reduced: dict = {}  # pivot row -> reduced column
        for idx in by_dim.get(q, []):
            if idx in pairs:
                continue
            verts = simplices[idx][0]
            rows = [index_of[verts[:omit] + verts[omit + 1:]] for omit in range(len(verts))]
            low = _reduce_bits(sum(1 << row for row in rows), reduced) if p == 2 else \
                _reduce_dict({row: (-1) ** omit % p for omit, row in enumerate(rows)}, reduced, p)
            if low is not None:
                pairs[low] = idx
    deaths = set(pairs.values())
    intervals = [(len(simplices[b][0]) - 1, simplices[b][1], simplices[d][1])
                 for b, d in pairs.items() if simplices[b][1] < simplices[d][1]]
    intervals += [(len(verts) - 1, value, math.inf) for i, (verts, value) in enumerate(simplices)
                  if i not in pairs and i not in deaths]
    return PersistenceDiagram(tuple(sorted(intervals)), field_spec)


def validate(complex_: FilteredComplex) -> None:
    """Check a complex's sortedness, face closure and value monotonicity."""
    index: dict[tuple[int, ...], float] = {}
    prev_key = None
    for verts, value in complex_.simplices:
        if list(verts) != sorted(verts):
            raise ValueError(f"simplex {verts} is not sorted")
        if len(verts) - 1 > complex_.max_dim:
            raise ValueError(f"simplex {verts} exceeds max_dim={complex_.max_dim}")
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


def _reduce_bits(col: int, reduced: dict[int, int]) -> int | None:
    """Reduce a GF(2) bitmask column and record it; its pivot row, or None if it vanishes."""
    while col:
        low = col.bit_length() - 1
        if low not in reduced:
            reduced[low] = col
            return low
        col ^= reduced[low]
    return None


def _reduce_dict(col: dict[int, int], reduced: dict[int, dict[int, int]], p: int) -> int | None:
    """`_reduce_bits` over F_p, for a row -> coefficient dict."""
    while col:
        low = max(col)
        pivot = reduced.get(low)
        if pivot is None:
            reduced[low] = col
            return low
        factor = col[low] * pow(pivot[low], p - 2, p) % p
        for row, coeff in pivot.items():
            col[row] = (col.get(row, 0) - factor * coeff) % p
        col = {row: coeff for row, coeff in col.items() if coeff}
    return None
