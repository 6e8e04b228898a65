"""Persistent homology of Cech filtrations over a prime field.

One reducer serves every caller: `_pivot_rows` reduces the boundary
columns of one dimension, given as an index array in the order wanted,
and returns its pivots as (row, column) pairs. `compute_persistence`
reads its diagram off those pairs (dimensions reduced top down, columns
in value order, with clearing, so columns known to be births are
skipped), the arity search reads the degree-k pairs of a stack of
configurations off one pass (`witness._best_intervals`), and the ranks
below read only their rows.
The tests check those ranks against a dense oracle that shares none of
this code (`tests/dense_oracle.py`).

Rank queries follow the closed convention: a class with interval
[birth, death) is alive at r iff birth <= r < death, so a death at
exactly r does not count.

`persistent_betti` sums over connected components. The Cech complex at
theta*r is the disjoint union of its pieces over the components of its
1-skeleton: the pairs whose edge value, half the root of their squared
distance, is <= theta*r (`filtration._edge_pairs`: the neighbour
layer's k-d tree query with a relative slack, then that exact test).
The complex at r sits inside it piece by piece, so the rank is the sum
of the per-component ranks. In
degree 0 each component carries one class. A degree-k class with k >= 1
needs at least k+2 points (the boundary of a (k+1)-simplex is the
smallest k-cycle) and a cycle in the 1-skeleton at r: where that graph
is a forest, the complex at r is that forest (a triangle would need a
cycle), with no homology above degree 0. So in degrees k >= 1 only
components of k+2 or more points whose 1-skeleton at r has a cycle
(edges - vertices + components > 0) are kept. In the subcritical regime
almost every component is a tiny tree: at n = 1e5 a figure-1 cloud has
about 8.8k components of 3 or more points, and about 1.6k of them have a
cycle at r. The kept components are built together in one batched pass
over the labelled pairs (`filtration._component_filtrations`, one level
of clique growth per dimension), with triangle radii bit-equal to
`miniball`'s; the simplices of each are those built from its component
as a sub-cloud. `geometry._labels`
labels the components in numpy.

`persistent_bettis` runs all of this on a batch of clouds: their points
are stacked one after another, and one neighbour pass finds the edges
of every cloud (`geometry._near_pairs`: tiny clouds share k-d trees, set
apart by an extra coordinate, and large clouds keep their own). A caller
that has already made that pass at a larger cutoff hands its candidates
over instead (the audit, for its isolation labels and locality pairs;
`zeta`, with every pair of its configurations), and the edge test keeps
the same pairs. Pairs never join two clouds, so components never mix,
and one labelling, one batched build and one reduction serve every
cloud. Each term of the rank below is a sum over components, so
`np.bincount` over the cloud of each simplex splits it per cloud.
`persistent_betti` is the batch of one.

The rank itself is read off those arrays without a diagram. With
K = Cech_r and L = Cech_{theta*r},

    beta_k = #{k-simplices of K} - rank d_k(K) - dim(B_k(L) & C_k(K)),

since a boundary of L made of simplices of K is a cycle of K. Order the
rows of d_{k+1}(L) by value: after column reduction the pivots in the
rows of value <= r number the rank of that row block, which is the last
term, whatever the order of the columns and of rows at equal value. One
pass reduces the (k+1)-columns of all kept components together, rows
numbered by component and then value, so the components never mix. For
k = 1, rank d_k(K) is vertices minus components of K's 1-skeleton,
counted per cloud by the labelling that looked for cycles at r;
above, it is the pivot count of a second pass over K's k-columns that
skips the k-simplices that are pivots of the first (clearing: such a
column is a sum of columns before it in the same row order). A column's
rows are its facets: the batched builder hands over the facets of every
simplex from triangles up as its clique growth finds them, and only a
`FilteredComplex` from outside, in `compute_persistence`, has its facets
looked up by code (`_facet_index`).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .filtration import FilteredComplex, _component_filtrations, _edge_pairs
from .geometry import PointCloud, _labels, _stacked

__all__ = [
    "FieldSpec",
    "GF2",
    "PersistenceDiagram",
    "compute_persistence",
    "betti",
    "persistent_betti",
    "persistent_bettis",
]


# The widest reduction `_pivot_rows` starts: its columns' widths summed, each
# column as wide as its component's rows (a GF(2) column is a bitmask over
# them). 2**32 bits is 512 MiB of bitmasks. One cloud of d = 2, c = 1.75,
# q = -0.55, theta = 1.4 on [-1, 1]^2 at n = 1e4 needs 1.87e9 bits (51,273
# columns over a 36,553-row component) and ranks in 0.5 s at a peak RSS of
# 385 MB (one core of a 2-core x86 machine); at n = 1e5 it needs 9.6e10. The
# figure-1 batches need at most 1.8e7, criterion 10b's at theta = 1.2 at most 4e7.
_MAX_COLUMN_BITS = 2 ** 32


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field F_p for a prime characteristic p."""

    characteristic: int = 2

    def __post_init__(self) -> None:
        if not _is_prime(self.characteristic):
            raise ValueError(f"field characteristic must be prime, got {self.characteristic}")


GF2 = FieldSpec(2)


@dataclass(frozen=True)
class PersistenceDiagram:
    """Intervals (dim, birth, death) with death = inf for essential classes.

    Zero-length intervals are dropped. Intervals in the top dimension of a
    capped filtration describe the capped complex, not the full Cech
    complex; rank queries for k < max_dim are unaffected.
    """

    intervals: tuple[tuple[int, float, float], ...]
    field: FieldSpec = GF2

    def rank(self, k: int, r: float, r_outer: float | None = None) -> int:
        """Classes of dimension k alive from r through r_outer (default r).

        Raises ValueError unless 0 <= r <= r_outer < inf, the radii that
        `persistent_bettis` takes (r_outer = theta*r with theta >= 1).
        """
        if r_outer is None:
            r_outer = r
        if not (0.0 <= r <= r_outer < math.inf):
            raise ValueError(f"radii must satisfy 0 <= r <= r_outer < inf, got r={r}, "
                             f"r_outer={r_outer}")
        count = 0
        for dim, birth, death in self.intervals:
            if dim == k and birth <= r and death > r_outer:
                count += 1
        return count

    def in_dimension(self, k: int) -> tuple[tuple[float, float], ...]:
        return tuple((b, d) for dim, b, d in self.intervals if dim == k)

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["dim", "birth", "death"])
            for dim, birth, death in self.intervals:
                writer.writerow([dim, repr(birth), "inf" if math.isinf(death) else repr(death)])


def _reduce_gfp(col: dict[int, int], pivots: dict[int, dict[int, int]], p: int) -> int:
    """Reduce an F_p column against `pivots` and record it; return its pivot row.

    The column is a row -> coefficient dict; `pivots` maps a pivot row to its
    reduced column. Returns -1 if the column reduces to zero.
    """
    while col:
        low = max(col)
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = col
            return low
        factor = (col[low] * pow(pivot[low], p - 2, p)) % p
        for row, coeff in pivot.items():
            new = (col.get(row, 0) - factor * coeff) % p
            if new:
                col[row] = new
            else:
                col.pop(row, None)
    return -1


def compute_persistence(complex_: FilteredComplex,
                        field_spec: FieldSpec = GF2) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex over F_p.

    The simplices are grouped by dimension, their facets are looked up by
    code (`_facet_index`) and the components of the edges label their
    vertices (`geometry._labels`), so each column of the reduction is a
    bitmask over its own component's rows. Each dimension's columns are
    reduced by `_pivot_rows` in value order, from the top dimension down,
    skipping the simplices paired as births by the dimension above
    (clearing). The order of simplices of equal value changes which of them
    pair, not the intervals: zero-length pairs are dropped, and the
    simplices left unpaired are the essential classes. Raises ValueError if
    a face of a simplex is missing from the complex. Deterministic:
    identical inputs give identical diagrams.
    """
    top = max((len(verts) - 1 for verts, _ in complex_.simplices), default=0)
    grouped: list[list] = [[] for _ in range(top + 1)]
    for verts, value in complex_.simplices:
        grouped[len(verts) - 1].append((verts, value))
    simplices = [(np.array([verts for verts, _ in of_q], dtype=np.intp).reshape(-1, q + 1),
                  np.array([value for _, value in of_q], dtype=np.float64))
                 for q, of_q in enumerate(grouped)]
    n = complex_.vertex_count
    labels = _labels(n, simplices[1][0]) if top else np.zeros(n, dtype=np.intp)
    # The death of each simplex as a birth: inf while unpaired, -inf once it
    # is a death itself, so that `value < end` keeps exactly the intervals.
    ends = [np.full(len(values), math.inf) for _, values in simplices]
    for q in range(len(simplices) - 1, 0, -1):
        order = np.argsort(simplices[q][1], kind="stable")
        columns = order[ends[q][order] == math.inf]  # not births of the dimension above
        rows, cols = _pivot_rows(simplices, q, labels, field_spec.characteristic, columns,
                                 _facet_index(simplices, simplices[q][0], n))
        ends[q - 1][rows] = simplices[q][1][cols]
        ends[q][cols] = -math.inf
    kept = [values < end for (_, values), end in zip(simplices, ends)]
    dims = np.repeat(np.arange(len(simplices)), [int(mask.sum()) for mask in kept])
    births = np.concatenate([values[mask] for (_, values), mask in zip(simplices, kept)])
    deaths = np.concatenate([end[mask] for end, mask in zip(ends, kept)])
    order = np.lexsort((deaths, births, dims))
    intervals = zip(dims[order].tolist(), births[order].tolist(), deaths[order].tolist())
    return PersistenceDiagram(tuple(intervals), field_spec)


def betti(cloud: PointCloud, r: float, k: int, field_spec: FieldSpec = GF2) -> int:
    """Betti number of the Cech complex of the cloud at radius r."""
    return persistent_betti(cloud, r, 1.0, k, field_spec)


def persistent_betti(cloud: PointCloud, r: float, theta: float, k: int,
                     field_spec: FieldSpec = GF2) -> int:
    """Rank of the map induced in degree-k homology by Cech_r -> Cech_{theta*r}.

    Counts the classes born by r that are still alive at theta*r; theta = 1
    recovers the ordinary Betti number. The rank is
    dim Z_k(K_r) - dim(Z_k(K_r) & B_k(K_{theta*r})), summed over the
    connected components of K_{theta*r}'s 1-skeleton; for k >= 1 only
    components whose 1-skeleton at r has a cycle are kept. Their simplices
    are built in one batched pass, and one reduction of the (k+1)-columns of
    all of them gives the second term (see the module docstring). No
    persistence diagram is built; `compute_persistence` gives those. This
    is `persistent_bettis` on a batch of one cloud.
    """
    return int(persistent_bettis([cloud], r, theta, k, field_spec)[0])


def persistent_bettis(clouds: Sequence[PointCloud], r: float, theta: float, k: int,
                      field_spec: FieldSpec = GF2) -> np.ndarray:
    """`persistent_betti` of each cloud of a batch, from one pass over all of them.

    The clouds' points are numbered one after another and no pair joins two
    clouds, so their components never mix: one neighbour pass, one
    labelling, one batched build and one reduction serve the whole batch,
    and the three terms of each rank are summed per cloud. Returns one rank
    per cloud, as an int64 array.
    """
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be a finite nonnegative real, got {r}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 0:
        raise ValueError(f"homology degree must be nonnegative, got {k}")
    if not clouds:
        return np.zeros(0, dtype=np.int64)
    return _persistent_bettis(*_stacked(clouds), r, theta, k, field_spec)


def _persistent_bettis(points: np.ndarray, sizes: Sequence[int], r: float, theta: float,
                       k: int, field_spec: FieldSpec,
                       near: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """`persistent_bettis` of the clouds stacked in `points`, one after another, of `sizes`.

    The arguments are taken as checked. `near`, if given, is the batch's
    `geometry._near_pairs` at a cutoff of 2*theta*r or more, and takes the
    place of the neighbour query (`filtration._edge_pairs`).
    """
    m = len(sizes)
    owner, labels, simplices, facets, pieces = _component_complexes(points, sizes, r,
                                                                     theta * r, k, near)
    if k == 0:  # every class is born at 0 and survives in its component at theta*r
        return np.bincount(owner, minlength=m)
    if not simplices:
        return np.zeros(m, dtype=np.int64)

    def per_cloud(vertices: np.ndarray) -> np.ndarray:
        return np.bincount(owner[labels[vertices]], minlength=m)

    inner = simplices[k][1] <= r
    born = per_cloud(simplices[k][0][inner, 0])
    p = field_spec.characteristic
    lows = _pivot_rows(simplices, k + 1, labels, p, np.arange(len(simplices[k + 1][1])),
                       facets[k + 1])[0]
    filled = per_cloud(simplices[k][0][lows[inner[lows]], 0])
    if k == 1:  # rank d_1(K) is its vertices less its components
        boundaries = per_cloud(simplices[0][0][:, 0]) - pieces
    else:
        inner[lows] = False  # cleared: a pivot row's own column reduces to zero
        pivots = _pivot_rows(simplices, k, labels, p, np.flatnonzero(inner), facets[k])[0]
        boundaries = per_cloud(simplices[k - 1][0][pivots, 0])
    return born - boundaries - filled


def _component_complexes(
        points: np.ndarray, sizes: Sequence[int], r: float, r_outer: float, k: int,
        near: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]],
           list[np.ndarray | None], np.ndarray | None]:
    """The split behind `persistent_bettis`, for a batch of one or more clouds.

    `points` stacks the clouds one after another and `sizes` gives their
    point counts. Returns the cloud of each component, the component labels
    of the points (the components of K_{r_outer}'s 1-skeleton), the
    simplices up to dimension k+1 of every kept component with their values
    and their facets, per dimension (`filtration._component_filtrations`),
    and for k >= 1 the number of components of K_r's 1-skeleton inside kept
    components, per cloud. One neighbour pass (`filtration._edge_pairs`, or
    `near` if given) finds the edges of every cloud. The batched build is
    skipped, and the lists are empty, when no component is kept.
    """
    pairs, values = _edge_pairs(points, sizes, r_outer, near)
    n = len(points)
    labels = _labels(n, pairs)
    owner = np.empty(int(labels.max()) + 1 if n else 0, dtype=np.intp)
    owner[labels] = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(labels, minlength=len(owner))
    keep = counts >= k + 2
    pieces = None
    if k > 0:
        # Keep a component only if its 1-skeleton at r has a cycle.
        inner = pairs[values <= r]
        inner_labels = _labels(n, inner)
        outer_of = np.empty(int(inner_labels.max()) + 1 if n else 0, dtype=np.intp)
        outer_of[inner_labels] = labels
        cycles = (np.bincount(labels[inner[:, 0]], minlength=len(counts)) - counts
                  + np.bincount(outer_of, minlength=len(counts)))
        keep &= cycles > 0
        pieces = np.bincount(owner[outer_of[keep[outer_of]]], minlength=len(sizes))
    if not keep.any():
        return owner, labels, [], [], pieces
    simplices, facets = _component_filtrations(points, pairs, values, labels, keep,
                                               r_outer, k + 1, owner)
    return owner, labels, simplices, facets, pieces


def _pivot_rows(simplices: list[tuple[np.ndarray, np.ndarray]], q: int, labels: np.ndarray,
                p: int, columns: np.ndarray, facets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots of the reduced boundary matrix of the q-simplices over F_p, as (row, column) pairs.

    `simplices` holds (vertices, values) per dimension for disjoint
    components (`labels` of their vertices); `columns` indexes the
    q-simplices to reduce, in the order they are reduced. `facets` gives,
    for every q-simplex, the index of its facet without vertex j among the
    (q-1)-simplices in column j: as the builder found them, or looked up by
    code (`_facet_index`). Rows are the (q-1)-simplices ordered by
    component and, within one, by value, ties in their given order: so the
    pivots among rows of value <= r number
    dim(B_{q-1}(K) & C_{q-1}(K_r)) whatever the column order, and with
    the columns in value order the pairs are persistence pairs. Over F_2
    a column is a bitmask over its component's rows; pivots are keyed by
    global row. Returns, for the columns that do not reduce to zero, their
    pivot rows as indices into the (q-1)-simplices and the columns as
    indices into the q-simplices, as two arrays. Raises ConfigurationError,
    before any column is built, when the columns' widths, each its
    component's row count, sum to more than `_MAX_COLUMN_BITS`: a giant
    component, whose columns grow as columns x rows.
    """
    faces, values = simplices[q - 1]
    component = labels[faces[:, 0]]
    sizes = np.bincount(component)
    lead = simplices[q][0][columns, 0]  # a vertex of each column, for its component
    widths = sizes[labels[lead]]
    if widths.sum() > _MAX_COLUMN_BITS:
        largest = labels[lead[np.argmax(widths)]]
        raise ConfigurationError(
            f"the reduction of {len(columns)} columns needs {int(widths.sum())} bits, above "
            f"the cap of {_MAX_COLUMN_BITS}; its largest component holds "
            f"{int(np.count_nonzero(labels == largest))} points and {int(widths.max())} "
            f"rows: the graph at the outer radius percolates")
    order = np.lexsort((values, component))
    row = np.empty(len(order), dtype=np.intp)
    row[order] = np.arange(len(order))
    rows = row[facets[columns]]
    pivots: dict = {}
    if p == 2:
        base = (np.cumsum(sizes) - sizes)[labels[lead]]
        # Columns are built facet by facet, one list of ints per facet: a small
        # list per column made this loop up to twice as slow on a batch of
        # figure-1 clouds once other work had churned the heap.
        local = (rows - base[:, None]).T.tolist()
        cols = [1 << i for i in local[0]]
        for facet in local[1:]:
            cols = [col | (1 << i) for col, i in zip(cols, facet)]
        # Reduce each column, a bitmask whose bit i stands for row first + i,
        # against the reduced columns keyed by their pivot row.
        lows: list[int] = []
        pivot_of, note = pivots.get, lows.append
        for col, first in zip(cols, base.tolist()):
            while col:
                low = first + col.bit_length() - 1
                pivot = pivot_of(low)
                if pivot is None:
                    pivots[low] = col
                    note(low)
                    break
                col ^= pivot
            else:
                note(-1)
    else:
        signs = [(-1) ** omit % p for omit in range(q + 1)]
        lows = [_reduce_gfp(dict(zip(column, signs)), pivots, p) for column in rows.tolist()]
    lows = np.array(lows, dtype=np.intp)
    paired = lows >= 0
    return order[lows[paired]], columns[paired]


def _facet_index(simplices: list[tuple[np.ndarray, np.ndarray]], cofaces: np.ndarray,
                 n: int) -> np.ndarray:
    """Index into the (q-1)-simplices of facet j (without vertex j) of each q-simplex.

    Raises ValueError if a facet is missing from the (q-1)-simplices.
    """
    q = cofaces.shape[1] - 1
    faces = simplices[q - 1][0]
    drop = [[i for i in range(q + 1) if i != j] for j in range(q + 1)]  # facet j's vertices
    facets = np.concatenate([faces, cofaces[:, drop].transpose(1, 0, 2).reshape(-1, q)])
    codes = _codes(simplices, facets, n)
    by_code = np.argsort(codes[:len(faces)])
    found = by_code[_find(codes[:len(faces)][by_code], codes[len(faces):])]
    return found.reshape(q + 1, len(cofaces)).T


def _codes(simplices: list[tuple[np.ndarray, np.ndarray]], verts: np.ndarray,
           n: int) -> np.ndarray:
    """Distinct integer codes of simplices of the complex, as searchsorted keys.

    Rows of `verts` are ascending vertices among n. A vertex is its own
    code; a simplex of c >= 2 vertices is the code of its first c-1
    vertices (a face, so in the complex; ValueError if it is not), replaced
    by its rank among the codes of those faces when c-1 >= 2, times n, plus
    its last vertex.
    """
    code = verts[:, 0].astype(np.int64)
    for c in range(1, verts.shape[1]):
        if c >= 2:
            code = _find(np.sort(_codes(simplices, simplices[c - 1][0], n)), code)
        code = code * n + verts[:, c]
    return code


def _find(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Position of each wanted code among the sorted codes `keys` of a dimension.

    Raises ValueError if one is absent: a face of a simplex is missing.
    """
    at = np.searchsorted(keys, wanted)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == wanted[hit]
    if not hit.all():
        raise ValueError("a face of a simplex is missing from the complex")
    return at
