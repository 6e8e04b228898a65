"""Point clouds, smallest enclosing balls and geometric graphs.

Distances are Euclidean throughout and all ball conventions are closed:
a point at distance exactly r from the center lies inside the ball, and a
pair at distance exactly r is an edge of the geometric graph at scale r.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "Ball",
    "GeometricGraph",
    "miniball",
    "geometric_graph",
    "component_labels",
    "ball_volume",
]

# Relative slack used when testing ball membership; keeps Welzl stable
# without inflating radii beyond the documented 1e-9 containment bound.
_EPS = 1e-12

# Up to this size a direct pair scan beats building a k-d tree.
_BRUTE_FORCE_CUTOFF = 48


@dataclass(frozen=True)
class PointCloud:
    """Immutable finite point set in R^d.

    Duplicate points are permitted; `has_duplicates` flags them so callers
    that assume distinctness can check cheaply.
    """

    dim: int
    points: np.ndarray  # shape (n, dim), float64

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {pts.shape}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if pts.size and not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_points(points: Iterable[Sequence[float]], dim: int | None = None) -> "PointCloud":
        arr = np.atleast_2d(np.asarray(list(points), dtype=np.float64))
        if arr.size == 0:
            if dim is None:
                raise ValueError("dimension required for an empty cloud")
            arr = arr.reshape(0, dim)
        return PointCloud(dim=arr.shape[1], points=arr)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def has_duplicates(self) -> bool:
        if len(self) < 2:
            return False
        return len({tuple(p) for p in self.points}) < len(self)

    @cached_property
    def as_tuples(self) -> tuple[tuple[float, ...], ...]:
        # Plain-float view; the pairwise loops below are faster off numpy.
        return tuple(map(tuple, self.points.tolist()))

    def diameter(self) -> float:
        if len(self) < 2:
            return 0.0
        best = 0.0
        pts = self.as_tuples
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                d2 = _dist2(p, q)
                if d2 > best:
                    best = d2
        return math.sqrt(best)

    def translated(self, offset: Sequence[float]) -> "PointCloud":
        return PointCloud(self.dim, self.points + np.asarray(offset, dtype=np.float64))

    def scaled(self, factor: float) -> "PointCloud":
        return PointCloud(self.dim, self.points * float(factor))

    def save(self, path: str | Path) -> None:
        """Write the text format: header `d n`, then one point per line."""
        Path(path).write_text(_format_cloud(self))

    @staticmethod
    def load(path: str | Path) -> "PointCloud":
        return _parse_cloud(Path(path).read_text())


def _format_cloud(cloud: PointCloud) -> str:
    lines = [f"{cloud.dim} {len(cloud)}"]
    for p in cloud.points:
        lines.append(" ".join(repr(float(x)) for x in p))
    return "\n".join(lines) + "\n"


def _parse_cloud(text: str) -> PointCloud:
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}: expected 'd n'")
    dim, n = int(header[0]), int(header[1])
    rows = [[float(x) for x in line.split()] for line in lines[1:] if line.strip()]
    if len(rows) != n:
        raise ValueError(f"header promised {n} points, found {len(rows)}")
    arr = np.asarray(rows, dtype=np.float64).reshape(n, dim) if rows else np.zeros((0, dim))
    return PointCloud(dim, arr)


@dataclass(frozen=True)
class Ball:
    """Closed ball with center and radius."""

    center: tuple[float, ...]
    radius: float

    def contains(self, point: Sequence[float], rel_tol: float = 1e-9) -> bool:
        d2 = _dist2(self.center, tuple(point))
        bound = self.radius * (1.0 + rel_tol)
        return d2 <= bound * bound


def _dist2(p: Sequence[float], q: Sequence[float]) -> float:
    s = 0.0
    for a, b in zip(p, q):
        t = a - b
        s += t * t
    return s


# ---------------------------------------------------------------------------
# Smallest enclosing ball (Welzl, move-to-front)
# ---------------------------------------------------------------------------


def _circumball(boundary: list[tuple[float, ...]]) -> tuple[tuple[float, ...], float]:
    """Smallest ball with all boundary points on its surface.

    The boundary set has at most d+1 affinely independent points; a
    least-squares solve keeps degenerate supports from blowing up.
    """
    if not boundary:
        return (), -1.0
    base = boundary[0]
    if len(boundary) == 1:
        return base, 0.0
    if len(boundary) == 2:
        q = boundary[1]
        center = tuple((a + b) / 2.0 for a, b in zip(base, q))
        return center, math.sqrt(_dist2(center, base))
    u = np.asarray(boundary[1:], dtype=np.float64) - np.asarray(base, dtype=np.float64)
    gram = u @ u.T
    rhs = 0.5 * np.einsum("ij,ij->i", u, u)
    try:
        coeff = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coeff = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    center_arr = np.asarray(base, dtype=np.float64) + coeff @ u
    center = tuple(center_arr.tolist())
    return center, math.sqrt(max(_dist2(center, base), 0.0))


def _mtf_miniball(points: list[tuple[float, ...]], boundary: list[tuple[float, ...]],
                  dim: int) -> tuple[tuple[float, ...], float]:
    """Move-to-front Welzl recursion; depth bounded by the boundary size."""
    center, radius = _circumball(boundary)
    if len(boundary) == dim + 1:
        return center, radius
    for i, p in enumerate(points):
        if radius < 0.0 or _dist2(center, p) > radius * radius * (1.0 + _EPS):
            center, radius = _mtf_miniball(points[:i], boundary + [p], dim)
            points.insert(0, points.pop(i))
    return center, radius


def miniball(points: Iterable[Sequence[float]] | PointCloud | np.ndarray) -> Ball:
    """Smallest closed ball containing all points.

    Exact (up to roundoff) because the optimum is determined by at most
    d+1 support points; deterministic for a fixed input order.
    """
    if isinstance(points, PointCloud):
        pts = list(points.as_tuples)
    else:
        pts = [tuple(float(x) for x in p) for p in points]
    if not pts:
        raise ValueError("miniball of an empty point set is undefined")
    dim = len(pts[0])
    if len(pts) == 1:
        return Ball(pts[0], 0.0)
    if len(pts) == 2:
        c, r = _circumball(pts)
        return Ball(c, r)
    if len(pts) == 3:
        # Hot path in filtration building: try each pair's diametral ball,
        # fall back to the circumball of all three.
        best = None
        for a, b in ((0, 1), (0, 2), (1, 2)):
            c, r = _circumball([pts[a], pts[b]])
            k = 3 - a - b
            if _dist2(c, pts[k]) <= r * r * (1.0 + _EPS):
                if best is None or r < best[1]:
                    best = (c, r)
        if best is not None:
            return Ball(best[0], best[1])
        c, r = _circumball(pts)
        return Ball(c, r)
    order = list(pts)
    if len(order) > 8:
        # Fixed-seed shuffle: defuses adversarial orders, stays deterministic.
        random.Random(0x5EED).shuffle(order)
    c, r = _mtf_miniball(order, [], dim)
    return Ball(c, r)


def ball_volume(dim: int, radius: float) -> float:
    """Lebesgue volume of a d-ball."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


# ---------------------------------------------------------------------------
# Geometric graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricGraph:
    """Graph on cloud indices with edges between points at distance <= r."""

    cloud: PointCloud
    r: float
    edges: tuple[tuple[int, int], ...]  # i < j, sorted

    @cached_property
    def adjacency_above(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors with larger index, ascending; used by clique growth."""
        adj: list[list[int]] = [[] for _ in range(len(self.cloud))]
        for i, j in self.edges:
            adj[i].append(j)
        return tuple(tuple(sorted(s)) for s in adj)

    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def labels(self) -> np.ndarray:
        """Connected-component label of each point, from 0 to component_count() - 1."""
        return _labels(len(self.cloud), np.array(self.edges, dtype=np.intp).reshape(-1, 2))

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def component_count(self) -> int:
        return int(self.labels.max()) + 1 if len(self.cloud) else 0


def _brute_force_edges(pts: Sequence[tuple[float, ...]], r: float) -> list[tuple[int, int]]:
    r2 = r * r
    out = []
    for i in range(len(pts)):
        pi = pts[i]
        for j in range(i + 1, len(pts)):
            if _dist2(pi, pts[j]) <= r2:
                out.append((i, j))
    return out


def _check_scale(r: float) -> None:
    if not (r >= 0.0) or not math.isfinite(r):
        raise ValueError(f"scale must be a finite nonnegative real, got {r}")


def _tree_pairs(cloud: PointCloud, r: float) -> np.ndarray:
    """Pairs i < j at distance <= r (closed), in no fixed order, as an (m, 2) index array."""
    return cKDTree(cloud.points).query_pairs(r, output_type="ndarray")


def _labels(n: int, pairs: np.ndarray) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    adjacency = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                           shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def geometric_graph(cloud: PointCloud, r: float) -> GeometricGraph:
    """Geometric graph at scale r: a direct pair scan for tiny clouds, a k-d tree above."""
    _check_scale(r)
    if len(cloud) <= _BRUTE_FORCE_CUTOFF:
        return GeometricGraph(cloud, r, tuple(_brute_force_edges(cloud.as_tuples, r)))
    pairs = _tree_pairs(cloud, r)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return GeometricGraph(cloud, r, tuple(map(tuple, pairs.tolist())))


def component_labels(cloud: PointCloud, r: float) -> np.ndarray:
    """`geometric_graph(cloud, r).labels`, without building edge tuples for large clouds."""
    if len(cloud) <= _BRUTE_FORCE_CUTOFF:
        return geometric_graph(cloud, r).labels
    _check_scale(r)
    return _labels(len(cloud), _tree_pairs(cloud, r))

