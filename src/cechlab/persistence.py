"""Persistent homology of Cech filtrations over a prime field.

`compute_persistence` runs boundary-matrix column reduction with the
clearing optimization (dimensions processed top down, so columns known
to be births are skipped). `betti_oracle` is an independent check that
never touches the reduction: it rank-computes boundary matrices of the
full complex by dense Gaussian elimination.

Rank queries follow the closed convention: a class with interval
[birth, death) is alive at r iff birth <= r < death, so a death at
exactly r does not count.

`persistent_betti` sums over connected components. The Cech complex at
theta*r is the disjoint union of its pieces over the components of the
geometric graph at 2*theta*r (a simplex of radius <= theta*r has all
pairwise distances <= 2*theta*r), and the complex at r sits inside it
piece by piece, so the rank is the sum of the per-component ranks. In
degree 0 a lone point carries one class. A degree-k class with k >= 1
needs at least k+2 points (the boundary of a (k+1)-simplex is the
smallest k-cycle) and a cycle in the graph at 2r: that graph holds the
1-skeleton of the complex at r, and where it is a forest the complex at
r is that forest (a triangle would need a cycle), with no homology above
degree 0. So in degrees k >= 1 only components of k+2 or more points
whose graph at 2r has a cycle (edges - vertices + components > 0) are
kept. In the subcritical regime almost every component is a tiny tree:
at n = 1e5 a figure-1 cloud has about 8.8k components of 3 or more
points, and about 1.6k of them have a cycle at 2r. The kept components
are built together in one batched pass over the pairs that the
labelling found (`filtration._component_filtrations`), with triangle
radii bit-equal to `miniball`'s; the simplices of each are those built
from its component as a sub-cloud. Clouds of every size take this path;
`geometry._labels` labels the components in numpy.

The rank itself is read off those arrays without a diagram. With
K = Cech_r and L = Cech_{theta*r},

    beta_k = #{k-simplices of K} - rank d_k(K) - dim(B_k(L) & C_k(K)),

since a boundary of L made of simplices of K is a cycle of K. Order the
rows of d_{k+1}(L) by value: after column reduction the pivots in the
rows of value <= r number the rank of that row block, which is the last
term, whatever the order of the columns and of rows at equal value. One
pass reduces the (k+1)-columns of all kept components together, rows
numbered by component and then value, so the components never mix. For
k <= 1, rank d_k(K) is vertices minus components of K's 1-skeleton;
above, it is the pivot count of a second pass over K's k-columns that
skips the k-simplices that are pivots of the first (clearing: such a
column is a sum of columns before it in the same row order).
`compute_persistence` stays the diagram API.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .filtration import FilteredComplex, _component_filtrations
from .geometry import PointCloud, _labels, _tree_pairs, miniball

__all__ = [
    "FieldSpec",
    "GF2",
    "PersistenceDiagram",
    "compute_persistence",
    "betti",
    "persistent_betti",
    "betti_oracle",
]

_ORACLE_MAX_POINTS = 16


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
        """Classes of dimension k alive from r through r_outer (default r)."""
        if r_outer is None:
            r_outer = r
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

    @staticmethod
    def load_csv(path: str | Path, field_spec: FieldSpec = GF2) -> "PersistenceDiagram":
        rows: list[tuple[int, float, float]] = []
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header != ["dim", "birth", "death"]:
                raise ValueError(f"unexpected diagram header {header}")
            for dim, birth, death in reader:
                rows.append((int(dim), float(birth), float(death)))
        return PersistenceDiagram(tuple(rows), field_spec)


def _reduce_gf2(col: int, pivots: dict[int, int], base: int = 0) -> int | None:
    """Reduce a GF(2) column against `pivots` and record it; return its pivot row.

    The column is a bitmask whose bit i stands for row base + i; `pivots`
    maps a pivot row to its reduced column. Returns None if the column
    reduces to zero.
    """
    while col:
        low = base + col.bit_length() - 1
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = col
            return low
        col ^= pivot
    return None


def _reduce_gfp(col: dict[int, int], pivots: dict[int, dict[int, int]], p: int) -> int | None:
    """`_reduce_gf2` over F_p, for a column given as a row -> coefficient dict."""
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
    return None


def compute_persistence(complex_: FilteredComplex,
                        field_spec: FieldSpec = GF2) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex over F_p.

    Deterministic: identical inputs give identical diagrams.
    """
    simplices = complex_.simplices
    index_of: dict[tuple[int, ...], int] = {verts: i for i, (verts, _) in enumerate(simplices)}
    by_dim: dict[int, list[int]] = {}
    for i, (verts, _) in enumerate(simplices):
        by_dim.setdefault(len(verts) - 1, []).append(i)

    p = field_spec.characteristic
    pairs: dict[int, int] = {}  # birth index -> death index
    cleared: set[int] = set()
    top = max(by_dim) if by_dim else 0
    for q in range(top, 0, -1):
        pivots: dict = {}
        for idx in by_dim.get(q, []):
            if idx in cleared:
                continue
            verts = simplices[idx][0]
            rows = [index_of[verts[:omit] + verts[omit + 1:]] for omit in range(len(verts))]
            if p == 2:
                col = 0
                for row in rows:
                    col |= 1 << row
                low = _reduce_gf2(col, pivots)
            else:
                low = _reduce_gfp({row: (-1) ** omit % p for omit, row in enumerate(rows)},
                                  pivots, p)
            if low is not None:
                pairs[low] = idx
                cleared.add(low)

    death_cols = set(pairs.values())
    intervals: list[tuple[int, float, float]] = []
    for birth_idx, death_idx in pairs.items():
        birth = simplices[birth_idx][1]
        death = simplices[death_idx][1]
        if birth < death:
            intervals.append((len(simplices[birth_idx][0]) - 1, birth, death))
    for i, (verts, value) in enumerate(simplices):
        if i not in pairs and i not in death_cols:
            intervals.append((len(verts) - 1, value, math.inf))
    intervals.sort()
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
    connected components of the geometric graph at 2*theta*r; for k >= 1
    only components whose graph at 2r has a cycle are kept. Their simplices
    are built in one batched pass, and one reduction of the (k+1)-columns of
    all of them gives the second term (see the module docstring). No
    persistence diagram is built; `compute_persistence` gives those.
    """
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be a finite nonnegative real, got {r}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 0:
        raise ValueError(f"homology degree must be nonnegative, got {k}")
    if len(cloud) == 0:
        return 0
    lone, labels, simplices = _component_complexes(cloud, r, theta * r, k)
    if not simplices:
        return lone
    vertices = simplices[0][0][:, 0]
    if k == 0:  # every class is born at 0 and survives in its component at theta*r
        return lone + len(np.unique(labels[vertices]))
    inner = simplices[k][1] <= r
    born = int(np.count_nonzero(inner))
    lows = _pivot_rows(simplices, k + 1, labels, field_spec.characteristic)
    filled = int(np.count_nonzero(inner[lows]))
    if k == 1:
        local = np.searchsorted(vertices, simplices[1][0][inner])
        boundaries = len(vertices) - int(_labels(len(vertices), local).max()) - 1
    else:
        inner[lows] = False  # cleared: a pivot row's own column reduces to zero
        boundaries = len(_pivot_rows(simplices, k, labels, field_spec.characteristic, inner))
    return born - boundaries - filled


def _component_complexes(cloud: PointCloud, r: float, r_outer: float, k: int
                         ) -> tuple[int, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The split behind `persistent_betti`, for clouds of every size.

    Returns the number of lone points (their classes, counted only for
    k = 0), the component labels of the graph at 2*r_outer, and the
    simplices up to dimension k+1 of every kept component with their values,
    per dimension (`filtration._component_filtrations`). The batched build
    is skipped, and the list is empty, when no component is kept.
    """
    pairs = _tree_pairs(cloud, 2.0 * r_outer)
    labels = _labels(len(cloud), pairs)
    sizes = np.bincount(labels)
    lone = int(np.count_nonzero(sizes == 1)) if k == 0 else 0
    keep = sizes >= k + 2
    if k > 0:
        # Keep a component only if its graph at 2r, a superset of the 1-skeleton
        # of Cech_r (the slack covers rounding in edge values), has a cycle.
        gaps = cloud.points[pairs[:, 0]] - cloud.points[pairs[:, 1]]
        inner = pairs[np.einsum("ij,ij->i", gaps, gaps) <= (2.0 * r) * (2.0 * r) * (1.0 + 1e-9)]
        inner_labels = _labels(len(cloud), inner)
        outer_of = np.empty(int(inner_labels.max()) + 1, dtype=np.intp)
        outer_of[inner_labels] = labels
        cycles = (np.bincount(labels[inner[:, 0]], minlength=len(sizes)) - sizes
                  + np.bincount(outer_of, minlength=len(sizes)))
        keep &= cycles > 0
    if not keep.any():
        return lone, labels, []
    return lone, labels, _component_filtrations(cloud.points, pairs, labels, keep, r_outer, k + 1)


def _pivot_rows(simplices: list[tuple[np.ndarray, np.ndarray]], q: int, labels: np.ndarray,
                p: int, columns: np.ndarray | None = None) -> np.ndarray:
    """Pivot rows of the reduced boundary matrix of the q-simplices over F_p.

    `simplices` holds (vertices, values) per dimension for disjoint
    components (`labels` of their vertices); `columns` selects q-simplices
    (all by default), reduced in one pass, in any order. Rows are the
    (q-1)-simplices ordered by component and, within one, by value, ties in
    any order: so the pivots among rows of value <= r number
    dim(B_{q-1}(K) & C_{q-1}(K_r)). Over F_2 a column is a bitmask over its
    component's rows; pivots are keyed by global row. Returns the pivot
    rows as indices into the (q-1)-simplices.
    """
    faces, values = simplices[q - 1]
    component = labels[faces[:, 0]]
    order = np.lexsort((values, component))
    row = np.empty(len(order), dtype=np.intp)
    row[order] = np.arange(len(order))
    cofaces = simplices[q][0] if columns is None else simplices[q][0][columns]
    rows = row[_facet_index(simplices, cofaces, len(labels))]
    pivots: dict = {}
    if p == 2:
        sizes = np.bincount(component)
        base = (np.cumsum(sizes) - sizes)[labels[cofaces[:, 0]]]
        for local, first in zip((rows - base[:, None]).tolist(), base.tolist()):
            col = 0
            for i in local:
                col |= 1 << i
            _reduce_gf2(col, pivots, first)
    else:
        signs = [(-1) ** omit % p for omit in range(q + 1)]
        for facets in rows.tolist():
            _reduce_gfp(dict(zip(facets, signs)), pivots, p)
    return order[np.fromiter(pivots, dtype=np.intp, count=len(pivots))]


def _facet_index(simplices: list[tuple[np.ndarray, np.ndarray]], cofaces: np.ndarray,
                 n: int) -> np.ndarray:
    """Index into the (q-1)-simplices of facet j (without vertex j) of each q-simplex."""
    q = cofaces.shape[1] - 1
    faces = simplices[q - 1][0]
    facets = np.concatenate([faces] + [np.delete(cofaces, j, axis=1) for j in range(q + 1)])
    codes = _codes(simplices, facets, n)
    by_code = np.argsort(codes[:len(faces)])
    found = by_code[np.searchsorted(codes[:len(faces)][by_code], codes[len(faces):])]
    return found.reshape(q + 1, len(cofaces)).T


def _codes(simplices: list[tuple[np.ndarray, np.ndarray]], verts: np.ndarray,
           n: int) -> np.ndarray:
    """Distinct integer codes of simplices of the complex, as searchsorted keys.

    Rows of `verts` are ascending vertices among n. A vertex is its own
    code; a simplex of c >= 2 vertices is the code of its first c-1
    vertices (a face, so in the complex), replaced by its rank among the
    codes of those faces when c-1 >= 2, times n, plus its last vertex.
    """
    code = verts[:, 0].astype(np.int64)
    for c in range(1, verts.shape[1]):
        if c >= 2:
            code = np.searchsorted(np.sort(_codes(simplices, simplices[c - 1][0], n)), code)
        code = code * n + verts[:, c]
    return code


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


def betti_oracle(cloud: PointCloud, r: float, k: int, field_spec: FieldSpec = GF2) -> int:
    """Betti number via dense boundary-matrix ranks; no reduction code shared.

    Enumerates every subset of size k..k+2 directly and computes
    dim ker - dim im from matrix ranks, so it is only usable for small
    clouds (at most 16 points).
    """
    n = len(cloud)
    if n > _ORACLE_MAX_POINTS:
        raise ValueError(f"oracle limited to {_ORACLE_MAX_POINTS} points, got {n}")
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be a finite nonnegative real, got {r}")
    if k < 0:
        raise ValueError(f"homology degree must be nonnegative, got {k}")
    if n == 0:
        return 0
    pts = cloud.as_tuples
    p = field_spec.characteristic

    def simplices_of_dim(q: int) -> list[tuple[int, ...]]:
        if q < 0:
            return []
        out = []
        for verts in combinations(range(n), q + 1):
            if miniball([pts[v] for v in verts]).radius <= r:
                out.append(verts)
        return out

    s_km1 = simplices_of_dim(k - 1)
    s_k = simplices_of_dim(k)
    s_kp1 = simplices_of_dim(k + 1)
    if not s_k:
        return 0

    def boundary_matrix(rows: list[tuple[int, ...]],
                        cols: list[tuple[int, ...]]) -> np.ndarray:
        row_index = {verts: i for i, verts in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, verts in enumerate(cols):
            for omit in range(len(verts)):
                face = verts[:omit] + verts[omit + 1:]
                if face in row_index:
                    mat[row_index[face], j] = (-1) ** omit
        return mat

    rank_dk = 0
    if s_km1 and k > 0:
        rank_dk = _rank_mod_p(boundary_matrix(s_km1, s_k), p)
    rank_dk1 = 0
    if s_kp1:
        rank_dk1 = _rank_mod_p(boundary_matrix(s_k, s_kp1), p)
    return len(s_k) - rank_dk - rank_dk1
