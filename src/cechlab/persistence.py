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
built and reduced. In the subcritical regime almost every component is
a tiny tree: at n = 1e5 a figure-1 cloud has about 8.8k components of 3
or more points, and about 1.6k of them have a cycle at 2r. Each
component is built as its own sub-cloud in ascending index order, which
keeps the miniball inputs, the filtration order and the pairings of a
whole-cloud run, so the result is identical.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .filtration import FilteredComplex, _build
from .geometry import _BRUTE_FORCE_CUTOFF, PointCloud, _labels, _tree_pairs, miniball

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


def _reduce_gf2(columns: dict[int, int], order: list[int],
                pairs: dict[int, int], cleared: set[int]) -> None:
    """Reduce GF(2) columns (bitmask ints) in filtration order."""
    pivot_col: dict[int, int] = {}
    for idx in order:
        if idx in cleared:
            continue
        col = columns[idx]
        while col:
            low = col.bit_length() - 1
            pivot = pivot_col.get(low)
            if pivot is None:
                pivot_col[low] = col
                pairs[low] = idx
                cleared.add(low)
                break
            col ^= pivot
        columns[idx] = col


def _reduce_gfp(columns: dict[int, dict[int, int]], order: list[int], p: int,
                pairs: dict[int, int], cleared: set[int]) -> None:
    """Reduce F_p columns (row -> coefficient dicts) in filtration order."""
    pivot_col: dict[int, dict[int, int]] = {}
    for idx in order:
        if idx in cleared:
            continue
        col = columns[idx]
        while col:
            low = max(col)
            pivot = pivot_col.get(low)
            if pivot is None:
                pivot_col[low] = col
                pairs[low] = idx
                cleared.add(low)
                break
            factor = (col[low] * pow(pivot[low], p - 2, p)) % p
            for row, coeff in pivot.items():
                new = (col.get(row, 0) - factor * coeff) % p
                if new:
                    col[row] = new
                else:
                    col.pop(row, None)
        columns[idx] = col


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
        order = by_dim.get(q, [])
        if p == 2:
            columns: dict[int, int] = {}
            for idx in order:
                if idx in cleared:
                    continue
                verts = simplices[idx][0]
                col = 0
                for omit in range(len(verts)):
                    col |= 1 << index_of[verts[:omit] + verts[omit + 1:]]
                columns[idx] = col
            _reduce_gf2(columns, order, pairs, cleared)
        else:
            columns_p: dict[int, dict[int, int]] = {}
            for idx in order:
                if idx in cleared:
                    continue
                verts = simplices[idx][0]
                col = {}
                for omit in range(len(verts)):
                    row = index_of[verts[:omit] + verts[omit + 1:]]
                    col[row] = (-1) ** omit % p
                columns_p[idx] = col
            _reduce_gfp(columns_p, order, p, pairs, cleared)

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

    Counts intervals with birth <= r and death > theta*r; theta = 1
    recovers the ordinary Betti number. Computed as a sum over the
    connected components of the geometric graph at 2*theta*r; for k >= 1
    only components whose graph at 2r has a cycle are reduced (see the
    module docstring). Clouds of at most 48 points are reduced whole.
    """
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be a finite nonnegative real, got {r}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 0:
        raise ValueError(f"homology degree must be nonnegative, got {k}")
    if len(cloud) == 0:
        return 0
    r_outer = theta * r
    if len(cloud) <= _BRUTE_FORCE_CUTOFF:
        # Labelling costs a fixed few hundred microseconds (scipy.sparse and
        # csgraph), more than reducing a cloud this small whole.
        return _rank(cloud, r, r_outer, k, field_spec)
    pairs = _tree_pairs(cloud, 2.0 * r_outer)
    labels = _labels(len(cloud), pairs)
    sizes = np.bincount(labels)
    by_label = np.argsort(labels, kind="stable")  # ascending indices within a component
    ends = np.cumsum(sizes)
    total = int(np.count_nonzero(sizes == 1)) if k == 0 else 0  # a lone point: one class
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
    for label in np.flatnonzero(keep):
        members = by_label[ends[label] - sizes[label]:ends[label]]
        total += _rank(PointCloud(cloud.dim, cloud.points[members]), r, r_outer, k, field_spec)
    return total


def _rank(cloud: PointCloud, r: float, r_outer: float, k: int, field_spec: FieldSpec) -> int:
    complex_ = _build(cloud, r_outer, k + 1, force=True)
    return compute_persistence(complex_, field_spec).rank(k, r, r_outer)


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
