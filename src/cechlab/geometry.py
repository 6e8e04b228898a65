"""Point clouds, smallest enclosing balls and geometric graphs.

Distances are Euclidean throughout and all ball conventions are closed:
a point at distance exactly r from the center lies inside the ball, and a
pair at distance exactly r is an edge of the geometric graph at scale r.

One neighbour layer finds every pair set of the package. `_near_pairs`
takes a batch of clouds, stacked one after another with the size of each,
and queries scipy's `cKDTree` with a relative slack: a cloud of
`_GROUP_POINTS` points or more (and a batch's only cloud) gets its own
tree, and smaller clouds share one tree per group of consecutive clouds,
kept apart by their cloud number as an extra last coordinate. An exact test
on `_rows_dist2` of the original coordinates then decides each pair
(`_close_pairs`: squared distance <= cutoff**2; `filtration._edge_pairs`:
edge value <= r_max), so neither the tree's arithmetic nor the grouping
can move a tie. The candidates of a query at a cutoff hold every pair
within any smaller one, with the same squared distances, so one query at
the largest cutoff of several consumers serves them all, each applying
its own test.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigurationError

__all__ = [
    "PointCloud",
    "Ball",
    "GeometricGraph",
    "miniball",
    "geometric_graph",
    "ball_volume",
]

# Relative slack used when testing ball membership; keeps Welzl stable
# without inflating radii beyond the documented 1e-9 containment bound.
_EPS = 1e-12


@dataclass(frozen=True)
class PointCloud:
    """Immutable finite point set in R^d. Duplicate points are permitted."""

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
    def as_tuples(self) -> tuple[tuple[float, ...], ...]:
        # Plain-float view; the pairwise loops below are faster off numpy.
        return tuple(map(tuple, self.points.tolist()))

    def diameter(self) -> float:
        """Largest pairwise distance, one `_rows_dist2` row per point (bit-equal to `_dist2`)."""
        pts = self.points
        best = 0.0
        for i in range(len(pts) - 1):
            best = max(best, float(_rows_dist2(pts[i:i + 1], pts[i + 1:]).max()))
        return math.sqrt(best)

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
        # The reference of `_triangle_radii`, its batched twin: try each
        # pair's diametral ball, fall back to the circumball of all three.
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


def _rows_dist2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`_dist2` of each row pair, summed one coordinate column at a time in its order."""
    s = np.zeros(len(p))
    for c in range(p.shape[1]):
        t = p[:, c] - q[:, c]
        s = s + t * t
    return s


def _circumradii(P: np.ndarray) -> np.ndarray:
    """`_circumball(...)` radii of a stack of three-point boundaries, (m, 3, d) -> (m,).

    The same numpy calls as `_circumball`, stacked, so every radius is bit-equal.
    """
    base = P[:, 0]
    u = P[:, 1:] - base[:, None, :]
    gram = u @ u.transpose(0, 2, 1)
    rhs = 0.5 * np.einsum("mij,mij->mi", u, u)
    try:
        coeff = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # One singular gram fails the whole stack: halve it until the singular
        # ones stand alone, and give those `_circumball`'s least-squares solve.
        if len(P) == 1:
            return np.array([_circumball(list(map(tuple, P[0].tolist())))[1]])
        half = len(P) // 2
        return np.concatenate([_circumradii(P[:half]), _circumradii(P[half:])])
    center = base + (coeff[:, None, :] @ u)[:, 0]
    return np.sqrt(np.maximum(_rows_dist2(center, base), 0.0))


def _triangle_radii(P: np.ndarray) -> np.ndarray:
    """`miniball(P[t]).radius` for each triangle t of a stack, (m, 3, d) -> (m,), bit-equal.

    The batched twin of `miniball`'s three-point branch: the smallest
    diametral ball of a pair that holds the third point (the first such pair
    on ties), else the circumball.
    """
    radius = np.full(len(P), np.inf)
    for a, b, other in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        center = (P[:, a] + P[:, b]) / 2.0
        r = np.sqrt(_rows_dist2(center, P[:, a]))
        holds = _rows_dist2(center, P[:, other]) <= r * r * (1.0 + _EPS)
        radius = np.where(holds & (r < radius), r, radius)
    rest = np.isinf(radius)
    if rest.any():
        radius[rest] = _circumradii(P[rest])
    return radius


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


def _check_scale(r: float) -> None:
    if not (r >= 0.0) or not math.isfinite(r):
        raise ValueError(f"scale must be a finite nonnegative real, got {r}")


# Relative slack of every neighbour query; the exact test on `_rows_dist2`
# that follows it decides each pair.
_QUERY_SLACK = 1.0 + 1e-9

# Clouds of fewer points share a k-d tree with the clouds next to them in a
# batch; larger clouds get a tree of their own. On 500 clouds of about 20
# points one tree per cloud took 8.7 ms and trees of about 256 points 2.8 ms,
# while 24 clouds of 1e3 points in one tree took twice as long as alone.
_GROUP_POINTS = 256

# Points a batch of clouds may hold: batched callers hand the layers as many
# consecutive clouds as fit, and at least one. So a figure-1 cloud at n = 1e5
# is a batch of its own, and a criterion-6 chunk of 20-point clouds is one.
_BATCH_POINTS = 100_000


def _batch_sizes(trials: int, per_trial: float) -> Iterator[int]:
    """Trial counts of consecutive batches of about `_BATCH_POINTS` points, and at least one.

    `per_trial` is the mean number of points a trial's cloud holds; a value
    the sampler refuses (NaN, negative) is left for it to report.
    """
    size = max(1, int(_BATCH_POINTS // per_trial)) if per_trial > 1.0 else _BATCH_POINTS
    for start in range(0, trials, size):
        yield min(size, trials - start)


def _tree_pairs(points: np.ndarray, r: float) -> np.ndarray:
    """Pairs i < j at distance <= r by the tree's arithmetic, in no fixed order, as (m, 2).

    The tree splits at midpoints, not medians, and keeps each node's full
    box: on a figure-1 cloud at n = 1e5 that halves the build (about 50 to
    27 ms) for a query_pairs about 10% slower, and gives the same pair set.
    """
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    return tree.query_pairs(r, output_type="ndarray")


def _stacked(clouds: Sequence[PointCloud]) -> tuple[np.ndarray, list[int]]:
    """The points of a nonempty batch of clouds, one cloud after another, and each one's size."""
    dims = {cloud.dim for cloud in clouds}
    if len(dims) > 1:
        raise ValueError(f"clouds of one batch must share a dimension, got {sorted(dims)}")
    points = clouds[0].points if len(clouds) == 1 else np.concatenate([c.points for c in clouds])
    return points, [len(cloud) for cloud in clouds]


def _near_pairs(points: np.ndarray, sizes: Sequence[int],
                cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs of a batch of clouds for the cutoff, and their squared distances.

    `points` stacks the clouds one after another, `sizes` gives each
    cloud's point count, and pairs index the stack. The candidates hold
    every pair i < j of one cloud at distance <= cutoff, some just beyond
    it (the query runs at cutoff * `_QUERY_SLACK`), and no pair of two
    clouds; their squared distances are `_rows_dist2` of the coordinates,
    for the caller's exact test. A cloud of `_GROUP_POINTS` points or more
    is queried alone on its own coordinates, and so is a batch's only cloud.
    Smaller clouds of two or more points go to shared trees, one per run of
    clouds that starts within `_GROUP_POINTS` points: there each point gets
    its cloud's number in the group times a spacing above the query radius
    as a last coordinate, so two clouds' points lie farther apart than the
    radius, and a pair of one cloud adds +0.0 to its squared distance. A
    group of one cloud keeps its own coordinates.
    """
    reach = cutoff * _QUERY_SLACK
    spacing = 2.0 * reach + 1.0
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    grouped = len(sizes) > 1 and math.isfinite(spacing)
    alone = sizes >= (_GROUP_POINTS if grouped else 2)
    small = np.flatnonzero(~alone & (sizes >= 2))
    found = [_tree_pairs(points[start:start + size], reach) + start
             for start, size in zip(starts[alone].tolist(), sizes[alone].tolist())]
    if len(small):
        counts = sizes[small]
        offset = np.cumsum(counts) - counts  # where each starts among the small clouds' points
        index = np.arange(counts.sum()) + np.repeat(starts[small] - offset, counts)
        # The first small cloud of each group, then their count; and the groups' points.
        bounds = np.append(np.flatnonzero(np.diff(offset // _GROUP_POINTS, prepend=-1)),
                           len(small))
        cuts = np.append(offset, len(index))[bounds].tolist()
        shared = np.diff(bounds) > 1
        if shared.any():
            number = np.arange(len(small)) - np.repeat(bounds[:-1], np.diff(bounds))
            stacked = np.column_stack((points[index], np.repeat(number * spacing, counts)))
        for lo, hi, many in zip(cuts[:-1], cuts[1:], shared.tolist()):
            local = _tree_pairs(stacked[lo:hi] if many else points[index[lo:hi]], reach)
            found.append(index[lo + local])
    pairs = (found[0] if len(found) == 1 else np.concatenate(found) if found
             else np.zeros((0, 2), dtype=np.intp))
    return pairs, _rows_dist2(points[pairs[:, 0]], points[pairs[:, 1]])


def _close_pairs(points: np.ndarray, sizes: Sequence[int], cutoff: float) -> np.ndarray:
    """Pairs i < j of one cloud of a batch at distance <= cutoff (`_dist2(p, q) <= cutoff**2`).

    The batch is stacked as `_near_pairs` takes it; pairs are in no fixed order.
    """
    pairs, d2 = _near_pairs(points, sizes, cutoff)
    return pairs[d2 <= cutoff * cutoff]


def _labels(n: int, pairs: np.ndarray) -> np.ndarray:
    """Component label of each of n points, components numbered by smallest member.

    Each round hooks the larger root of every pair joining two roots under
    the smaller one (any hook of a root may win, and all point down), then
    halves paths until every point points at its root. The joining pairs go
    to the next round reversed, so a sorted pair list cannot make a star's
    centre take one leaf per round.
    """
    root = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = root[a], root[b]
        joins = np.flatnonzero(ra != rb)[::-1]
        if not len(joins):
            return (np.cumsum(root == np.arange(n)) - 1)[root]
        a, b, ra, rb = a[joins], b[joins], ra[joins], rb[joins]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        halved = root[root]
        while not np.array_equal(halved, root):
            root, halved = halved, halved[halved]


# Candidate cliques one level of `_next_cliques` may make for one cloud; it
# also holds at most this many at once, at least 40 bytes each of index arrays.
# Figure-1 clouds at n = 1e5 need under 6,000 candidate triangles and
# `construct_witness(1, 10.0)` about 440,000; the k = 2 witness at theta = 1,
# one 2594-point component, would need 5.3e8.
_MAX_CANDIDATES = 5_000_000


def _next_cliques(rows: np.ndarray, faces: np.ndarray, pairs: np.ndarray, cloud: np.ndarray,
                  named: str) -> tuple[np.ndarray, np.ndarray]:
    """The cliques one node larger than the cliques `rows`, with their faces among them.

    The graph's nodes are numbered as `cloud`, the cloud of each node, and
    its edges are `pairs`, rows a < b in lexicographic order. `rows` holds
    the cliques of one level, c ascending nodes each, in lexicographic
    order, and `faces` in column j the index of each one's face without
    node j among the level below: a pair's faces are its nodes, reversed,
    and a single node's face is 0. Each clique is extended by each higher
    neighbour of its last node whose other faces are all in `rows`, found
    by binary search on codes: a clique's code is its face without the last
    node times the node count, plus that node, and codes ascend with the
    rows. Returns the new cliques, in lexicographic order, and their faces
    as indices into `rows`, column j the face without node j (the last
    column is the clique extended). Raises ConfigurationError, before
    making them, when one cloud's candidates (a clique and a higher
    neighbour of its last node) number more than `_MAX_CANDIDATES`; the
    message is `named` filled in with that count, then the cap. Candidates
    are made for consecutive runs of rows, at most that many at a time, so a
    batch of many clouds takes no more memory than its largest allowed cloud.
    """
    m, c = rows.shape
    if not m:
        return np.zeros((0, c + 1), dtype=np.intp), np.zeros((0, c + 1), dtype=np.intp)
    n = len(cloud)
    second = pairs[:, 1]
    count = np.bincount(pairs[:, 0], minlength=n)
    start = np.cumsum(count) - count
    last = rows[:, -1]
    reps = count[last]
    need = int(np.bincount(cloud[last], weights=reps).max())
    if need > _MAX_CANDIDATES:
        raise ConfigurationError(f"{named.format(need)}, above the cap of {_MAX_CANDIDATES}")
    codes = faces[:, -1].astype(np.int64) * n + last
    ends = np.cumsum(reps)
    runs = []  # (cliques, faces) grown from each run of rows lo..hi-1
    lo = 0
    while lo < m:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _MAX_CANDIDATES, side="right")), lo + 1)
        run = slice(lo, hi)
        parent = np.repeat(np.arange(lo, hi), reps[run])
        node = second[start[last[parent]] + np.arange(done, int(ends[hi - 1]))
                      - np.repeat(ends[run] - reps[run], reps[run])]
        found = []  # the faces found so far, the last column first
        for j in range(c - 1, -1, -1):
            wanted = faces[:, j][parent].astype(np.int64) * n + node
            at = np.searchsorted(codes, wanted)
            hit = codes.take(at, mode="clip") == wanted
            parent, node = parent[hit], node[hit]
            found = [column[hit] for column in found] + [at[hit]]
        runs.append((np.column_stack([column[parent] for column in rows.T] + [node]),
                     np.column_stack(found[::-1] + [parent])))
        lo = hi
    return runs[0] if len(runs) == 1 else tuple(np.concatenate(part) for part in zip(*runs))


def geometric_graph(cloud: PointCloud, r: float) -> GeometricGraph:
    """Geometric graph at scale r, with edges from the neighbour layer (`_close_pairs`)."""
    _check_scale(r)
    pairs = _close_pairs(cloud.points, [len(cloud)], r)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return GeometricGraph(cloud, r, tuple(map(tuple, pairs.tolist())))

