"""Explicit witnesses for persistent cycles and arity searches.

A witness is a finite point set Q with persistent_betti(Q, r, theta, k)
at least one: a degree-k cycle alive from radius r out to theta*r. The
deterministic construction places Q on the boundary of a regular
(k+1)-simplex, subdivided until the mesh is fine enough that the union
of r-balls covers the boundary while theta*r-balls still miss the
circumcenter. The randomized search estimates the minimal number of
points that can support such a cycle by brute sampling.

The search scores configurations by their best degree-k death/birth
ratio. For k = 1, triangles have a closed form, vectorised
(`_triangle_persistence_ratios`) and scalar (`_triangle_ratio`, for the
local refinement) and bit-equal to each other, and `_batch_ratios`
scores a batch of 4 to 11 points over GF(2) in one vectorised pass:
edge and triangle values, their filtration order, and a GF(2) reduction
of the triangle columns as int64 bitmasks over edge ranks. Its ratios
are bit-equal to the per-configuration `_config_ratio`, which still
serves the local refinement of 4 or more points and the other cases:
k >= 2 (more than triangle columns), other fields (from 6 points on, a
complex can hold a triangulated projective plane, whose H_1 depends on
the field) and more than 11 points (C(11, 2) = 55 edge bits fill an
int64).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import (PointCloud, _dist2, _format_cloud, _parse_cloud, _rows_dist2,
                       _triangle_radii)
from .persistence import FieldSpec, GF2, compute_persistence, persistent_betti
from .filtration import _build
from .sampling import sample_in_ball

__all__ = [
    "CycleWitness",
    "MBracket",
    "zeta_indicator",
    "construct_witness",
    "perturbation_radius",
    "perturb_and_verify",
    "search_m",
    "bracket_m",
    "upper_bound_constant",
]


@dataclass(frozen=True)
class CycleWitness:
    """Point set supporting a degree-k cycle alive on [r, R], with R >= theta*r."""

    points: PointCloud
    r: float
    theta: float
    k: int
    R: float
    verified_rank: int

    def __post_init__(self) -> None:
        if self.theta < 1.0:
            raise ValueError(f"persistence factor must satisfy theta >= 1, got {self.theta}")
        if self.R < self.theta * self.r:
            raise ValueError(f"outer radius {self.R} below theta*r = {self.theta * self.r}")
        if self.verified_rank < 1:
            raise ValueError("witnesses must carry a verified rank of at least 1")

    def verify(self, field_spec: FieldSpec = GF2) -> int:
        """Recompute the persistent rank; raises if the cycle is gone."""
        rank = persistent_betti(self.points, self.r, self.theta, self.k, field_spec)
        if rank < 1:
            raise ValueError("witness failed re-verification: no persistent cycle")
        return rank

    def save(self, path: str | Path) -> None:
        """Header `k theta r R rank`, then the point cloud text format."""
        head = f"{self.k} {self.theta!r} {self.r!r} {self.R!r} {self.verified_rank}\n"
        Path(path).write_text(head + _format_cloud(self.points))

    @staticmethod
    def load(path: str | Path) -> "CycleWitness":
        head, _, body = Path(path).read_text().partition("\n")
        k_s, theta_s, r_s, big_r_s, rank_s = head.split()
        witness = CycleWitness(points=_parse_cloud(body), r=float(r_s), theta=float(theta_s),
                               k=int(k_s), R=float(big_r_s), verified_rank=int(rank_s))
        witness.verify()
        return witness


@dataclass(frozen=True)
class MBracket:
    """Bracket on the minimal cycle arity: no witness found at lower_searched,
    witness in hand at upper."""

    theta: float
    k: int
    d: int
    upper: int
    lower_searched: int
    trials_per_arity: int
    witness: CycleWitness | None = None

    def __post_init__(self) -> None:
        if self.upper < self.k + 2:
            raise ValueError(f"no degree-{self.k} cycle fits on {self.upper} points")
        if self.lower_searched >= self.upper:
            raise ValueError("bracket is empty: lower bound reached the upper")


def zeta_indicator(points: PointCloud | np.ndarray, r: float, theta: float, k: int,
                   field_spec: FieldSpec = GF2) -> int:
    """1 iff the point set supports a k-cycle alive from r through theta*r."""
    if not isinstance(points, PointCloud):
        points = np.asarray(points, dtype=np.float64)
        points = PointCloud(points.shape[1], points)
    return int(persistent_betti(points, r, theta, k, field_spec) >= 1)


# ---------------------------------------------------------------------------
# Deterministic construction on a subdivided simplex boundary
# ---------------------------------------------------------------------------


def _barycentric_subdivision(coords: dict[int, np.ndarray],
                             cells: list[tuple[int, ...]]) -> tuple[dict[int, np.ndarray],
                                                                    list[tuple[int, ...]]]:
    """One round of barycentric subdivision of a pure simplicial complex."""
    face_ids: dict[frozenset[int], int] = {}
    new_coords: dict[int, np.ndarray] = {}

    def face_id(face: frozenset[int]) -> int:
        known = face_ids.get(face)
        if known is None:
            known = len(face_ids)
            face_ids[face] = known
            members = sorted(face)
            new_coords[known] = sum(coords[v] for v in members) / len(members)
        return known

    # Deterministic id assignment: visit faces in sorted order.
    all_faces: set[frozenset[int]] = set()
    for cell in cells:
        for size in range(1, len(cell) + 1):
            for sub in combinations(cell, size):
                all_faces.add(frozenset(sub))
    for face in sorted(all_faces, key=lambda fs: tuple(sorted(fs))):
        face_id(face)

    new_cells: list[tuple[int, ...]] = []
    for cell in cells:
        for perm in permutations(cell):
            chain = tuple(face_id(frozenset(perm[:i + 1])) for i in range(len(cell)))
            new_cells.append(tuple(sorted(chain)))
    return new_coords, new_cells


def _max_cell_diameter(coords: dict[int, np.ndarray], cells: list[tuple[int, ...]]) -> float:
    worst = 0.0
    for cell in cells:
        for a, b in combinations(cell, 2):
            worst = max(worst, float(np.linalg.norm(coords[a] - coords[b])))
    return worst


# Cells one subdivision round of `construct_witness` may produce. Each round
# multiplies the cells by (k+1)!: k = 1 stays below 200 cells up to theta = 10
# and k = 2 needs 31,104 up to theta = 2.5, while k = 3 at theta = 1 would need
# about 5 * 24**7 (2e10). The cap stops k = 3 before its 69,120-cell round.
_MAX_WITNESS_CELLS = 50_000


def construct_witness(k: int, theta: float, field_spec: FieldSpec = GF2,
                      max_rounds: int = 12) -> CycleWitness:
    """Witness for a theta-persistent k-cycle on k+2+ points in R^(k+2).

    Takes the boundary of the regular (k+1)-simplex spanned by the unit
    basis vectors, whose circumcenter sits at distance
    R* = 1/sqrt((k+1)(k+2)) from the boundary. With r = 0.99 * R* / theta
    the boundary is subdivided until every simplex has diameter at most
    r: then r-balls around the vertices cover the boundary sphere while
    theta*r-balls still miss the circumcenter, so the boundary cycle
    survives from r to theta*r. The result is verified before returning.
    Raises ConfigurationError, before subdividing, when the next round would
    pass `_MAX_WITNESS_CELLS` cells.
    """
    if k < 1:
        raise ValueError(f"cycle degree must be at least 1, got {k}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    ambient = k + 2
    coords = {i: np.eye(ambient)[i] for i in range(ambient)}
    cells = [tuple(sorted(c)) for c in combinations(range(ambient), ambient - 1)]
    center = np.full(ambient, 1.0 / ambient)
    facet_barycenter = np.array([0.0] + [1.0 / (ambient - 1)] * (ambient - 1))
    boundary_distance = float(np.linalg.norm(center - facet_barycenter))
    r = 0.99 * boundary_distance / theta

    rounds = 0
    while _max_cell_diameter(coords, cells) > r:
        if rounds >= max_rounds:
            raise RuntimeError(f"subdivision did not reach mesh {r} in {max_rounds} rounds")
        predicted = len(cells) * math.factorial(k + 1)
        if predicted > _MAX_WITNESS_CELLS:
            raise ConfigurationError(
                f"a witness for k={k}, theta={theta} needs a subdivision round of "
                f"{predicted} cells, above the cap of {_MAX_WITNESS_CELLS}")
        coords, cells = _barycentric_subdivision(coords, cells)
        rounds += 1

    points = np.vstack([coords[i] for i in sorted(coords)])
    cloud = PointCloud(ambient, points)
    rank = persistent_betti(cloud, r, theta, k, field_spec)
    if rank < 1:
        raise RuntimeError("construction failed verification; this is a bug")
    return CycleWitness(points=cloud, r=r, theta=theta, k=k,
                        R=boundary_distance, verified_rank=rank)


def perturbation_radius(R: float, r: float, theta: float) -> float:
    """Largest safe displacement delta = (R - theta*r) / (theta + 1).

    Moving each witness point less than delta keeps a cycle alive from
    r + delta through R - delta, and (R - delta) / (r + delta) = theta.
    """
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if not (r > 0.0) or not (R > 0.0):
        raise ValueError(f"radii must be positive, got r={r}, R={R}")
    if R <= theta * r:
        raise ValueError(f"no perturbation margin: R={R} <= theta*r={theta * r}")
    return (R - theta * r) / (theta + 1.0)


def perturb_and_verify(witness: CycleWitness, rng: np.random.Generator, trials: int,
                       delta_scale: float = 1.0, field_spec: FieldSpec = GF2) -> float:
    """Fraction of uniformly perturbed copies that keep their persistent cycle.

    Each point moves by an independent uniform draw from the open ball
    of radius delta (times delta_scale, for negative controls); the
    perturbed cloud is tested at radius r + delta with the same theta.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if trials == 0:
        warnings.warn("perturb_and_verify called with zero trials; nothing was checked")
        return 1.0
    delta = perturbation_radius(witness.R, witness.r, witness.theta)
    move = delta * delta_scale
    n, d = witness.points.points.shape
    successes = 0
    for _ in range(trials):
        offsets = sample_in_ball(n, d, move, rng)
        shifted = PointCloud(d, witness.points.points + offsets)
        if persistent_betti(shifted, witness.r + delta, witness.theta, witness.k,
                            field_spec) >= 1:
            successes += 1
    return successes / trials


# ---------------------------------------------------------------------------
# Randomized arity search
# ---------------------------------------------------------------------------


def _best_interval(points: np.ndarray, k: int,
                   field_spec: FieldSpec) -> tuple[float, float] | None:
    """Finite degree-k (birth, death) pair with the largest death/birth, if any.

    One diagram answers the whole radius scan exactly: a witness radius
    exists iff some degree-k interval satisfies death/birth > theta.
    """
    cloud = PointCloud(points.shape[1], points)
    diameter = cloud.diameter()
    if diameter == 0.0:
        return None
    complex_ = _build(cloud, r_max=diameter, max_dim=k + 1, force=True)
    diagram = compute_persistence(complex_, field_spec)
    best: tuple[float, float] | None = None
    for birth, death in diagram.in_dimension(k):
        if birth > 0.0 and math.isfinite(death):
            if best is None or death / birth > best[1] / best[0]:
                best = (birth, death)
    return best


def _triangle_persistence_ratios(configs: np.ndarray) -> np.ndarray:
    """death/birth for the 1-cycle of each 3-point configuration (vectorized).

    The cycle of a triangle is born once all edges are present (half the
    longest side) and dies at the miniball radius: the circumradius for
    acute triangles, half the longest side otherwise (ratio 1).
    `_triangle_ratio` is its scalar twin, bit-equal: both take the squared
    sides in `_dist2`'s order and apply the same operations in the same order.
    """
    a2 = _rows_dist2(configs[:, 0], configs[:, 1])
    b2 = _rows_dist2(configs[:, 0], configs[:, 2])
    c2 = _rows_dist2(configs[:, 1], configs[:, 2])
    longest2 = np.maximum(np.maximum(a2, b2), c2)
    s2 = a2 + b2 + c2
    acute = longest2 < s2 - longest2
    # circumradius^2 = a^2 b^2 c^2 / (16 * area^2) via Heron's formula
    area16 = np.maximum(4.0 * (a2 * b2 + b2 * c2 + c2 * a2) - s2 * s2, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        circum2 = a2 * b2 * c2 / area16
        ratio2 = np.where(acute, 4.0 * circum2 / longest2, 1.0)
    return np.sqrt(ratio2)


def _triangle_ratio(points: np.ndarray) -> float:
    """`_triangle_persistence_ratios(points[None])[0]` for one (3, d) triangle."""
    p, q, o = points.tolist()
    a2, b2, c2 = _dist2(p, q), _dist2(p, o), _dist2(q, o)
    longest2 = max(a2, b2, c2)
    s2 = a2 + b2 + c2
    if not longest2 < s2 - longest2:
        return 1.0
    area16 = max(4.0 * (a2 * b2 + b2 * c2 + c2 * a2) - s2 * s2, 1e-300)
    return math.sqrt(4.0 * (a2 * b2 * c2 / area16) / longest2)


def _config_ratio(points: np.ndarray, k: int, field_spec: FieldSpec) -> float:
    """Best death/birth over degree-k intervals; 1.0 when no cycle forms."""
    if k == 1 and points.shape[0] == 3:
        return _triangle_ratio(points)
    interval = _best_interval(points, k, field_spec)
    return 1.0 if interval is None else max(1.0, interval[1] / interval[0])


# Largest configuration `_batch_ratios` scores: its C(11, 2) = 55 edge ranks
# are the bits of an int64 column.
_BATCH_MAX_POINTS = 11
# Configurations `search_m` hands `_batch_ratios` at once. At 4 points the
# scorer's arrays then take about 0.3 MB; scoring whole 4096-configuration
# batches saves about 5 ms per batch but adds about 0.9 MB to the peak RSS
# of a 4-point search.
_SCORE_CHUNK = 1024


def _highest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each positive int64."""
    low = np.frexp(x.astype(np.float64))[1] - 1
    # Above 2**53 the float conversion can round up to the next power of two.
    return low - ((x >> low) == 0)


def _batch_ratios(configs: np.ndarray) -> np.ndarray:
    """`_config_ratio(configs[i], 1, GF2)` for each configuration, (m, p, d) -> (m,).

    For 4 <= p <= 11 points, bit-equal. `_best_interval` builds the full
    2-skeleton (r_max is the diameter), so no degree-1 class is essential
    and its finite pairs are those of the triangle columns. This builds the
    same filtration for the whole batch at once: edge values from `_dist2`'s
    squares, triangle values as the largest of the `miniball` radius
    (`_triangle_radii`) and the three edge values, and per configuration a
    stable sort on value of edges and of triangles in `combinations` order,
    which is the (value, vertices) order of `FilteredComplex`. The triangle
    columns, int64 bitmasks over edge ranks, are then reduced over GF(2) one
    triangle at a time across the batch.
    """
    m, p, _ = configs.shape
    edges = list(combinations(range(p), 2))
    edge_of = {e: i for i, e in enumerate(edges)}
    triangles = list(combinations(range(p), 3))
    sides = np.array([[edge_of[a, b], edge_of[a, c], edge_of[b, c]] for a, b, c in triangles])
    # One column of edges or triangles at a time keeps the batch's temporaries small.
    edge_values = np.column_stack([0.5 * np.sqrt(_rows_dist2(configs[:, a], configs[:, b]))
                                   for a, b in edges])
    triangle_values = np.column_stack([
        np.maximum(_triangle_radii(configs[:, triangle]), edge_values[:, side].max(axis=1))
        for triangle, side in zip(triangles, sides)])

    edge_rank = np.argsort(np.argsort(edge_values, axis=1, kind="stable"), axis=1)
    columns = np.column_stack([np.bitwise_or.reduce(np.int64(1) << edge_rank[:, side], axis=1)
                               for side in sides])
    columns = np.take_along_axis(
        columns, np.argsort(triangle_values, axis=1, kind="stable"), axis=1)
    births, deaths = edge_values, triangle_values
    births.sort(axis=1)  # value by edge rank
    deaths.sort(axis=1)  # value by triangle step

    pivots = np.zeros((m, len(edges)), dtype=np.int64)  # reduced column by its low, or 0
    best = np.ones(m)
    for t in range(len(triangles)):
        live, column = np.arange(m), columns[:, t]
        while len(live):
            low = _highest_bit(column)
            pivot = pivots[live, low]
            new = pivot == 0
            # A new pivot pairs edge `low` (birth) with triangle t (death).
            at, at_low = live[new], low[new]
            pivots[at, at_low] = column[new]
            birth, death = births[at, at_low], deaths[at, t]
            kept = (birth > 0.0) & (death > birth)
            best[at[kept]] = np.maximum(best[at[kept]], death[kept] / birth[kept])
            column = column[~new] ^ pivot[~new]
            live = live[~new][column != 0]
            column = column[column != 0]
    return best


def _witness_from_config(points: np.ndarray, d: int, k: int, theta: float,
                         field_spec: FieldSpec) -> CycleWitness | None:
    span = PointCloud(d, points).diameter()
    if span == 0.0:
        return None
    points = points / span
    interval = _best_interval(points, k, field_spec)
    if interval is None or interval[1] <= theta * interval[0]:
        return None
    birth, death = interval
    r = math.sqrt(birth * (death / theta))
    cloud = PointCloud(d, points)
    rank = persistent_betti(cloud, r, theta, k, field_spec)
    if rank < 1:
        return None  # borderline roundoff; treat as not found
    return CycleWitness(points=cloud, r=r, theta=theta, k=k,
                        R=theta * r, verified_rank=rank)


def search_m(d: int, k: int, theta: float, p: int, trials: int,
             rng: np.random.Generator, refine: bool = True,
             field_spec: FieldSpec = GF2) -> CycleWitness | None:
    """Random search for a theta-persistent k-cycle on exactly p points.

    Configurations are sampled uniformly in the unit box and normalized
    to unit diameter; each is scanned over every radius at once through
    its persistence diagram. Near-extremal persistence (say squares at
    theta close to sqrt(2)) occupies far too little volume for uniform
    sampling alone, so each batch's most persistent configuration is
    additionally pushed uphill by a derivative-free local search; any
    candidate is verified through `persistent_betti` before it is
    returned. Finding no witness suggests (but never proves) that p is
    below the minimal cycle arity.

    For k = 1, triangles are scored in closed form (one at a time in the
    refinement), and batches of 4 to 11 points over GF(2) in one vectorised
    diagram pass (`_batch_ratios`), bit-equal to scoring each configuration
    alone. The refinement of 4 or more points and every other case score
    each configuration through its own persistence diagram (`_config_ratio`):
    for k >= 2 the complex has more than triangle columns, over other fields
    a 6-point projective plane has another H_1, and above 11 points the
    edges do not fit an int64 bitmask.
    """
    if d < 1 or k < 1 or p < 1:
        raise ValueError(f"invalid search parameters d={d}, k={k}, p={p}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    from scipy.optimize import minimize

    batch = 4096
    done = 0
    while done < trials:
        count = min(batch, trials - done)
        configs = rng.random((count, p, d))
        if k == 1 and p == 3:
            # Vectorized: the triangle diagram is analytic.
            ratios = _triangle_persistence_ratios(configs)
        elif k == 1 and field_spec.characteristic == 2 and 4 <= p <= _BATCH_MAX_POINTS:
            ratios = np.concatenate([_batch_ratios(configs[i:i + _SCORE_CHUNK])
                                     for i in range(0, count, _SCORE_CHUNK)])
        else:
            ratios = np.fromiter((_config_ratio(configs[i], k, field_spec)
                                  for i in range(count)), dtype=np.float64, count=count)
        for i in np.flatnonzero(ratios > theta):
            witness = _witness_from_config(configs[i], d, k, theta, field_spec)
            if witness is not None:
                return witness
        if refine:
            start = configs[int(ratios.argmax())].reshape(-1)
            result = minimize(lambda x: -_config_ratio(x.reshape(p, d), k, field_spec),
                              start, method="Nelder-Mead",
                              options={"maxfev": 400, "xatol": 1e-4, "fatol": 1e-6})
            if -result.fun > theta:
                witness = _witness_from_config(result.x.reshape(p, d), d, k, theta,
                                               field_spec)
                if witness is not None:
                    return witness
        done += count
    return None


def bracket_m(d: int, k: int, theta: float, trials_per_arity: int,
              rng: np.random.Generator, max_arity: int | None = None,
              field_spec: FieldSpec = GF2) -> MBracket | None:
    """Bracket the minimal arity by searching p = k+2, k+3, ... in turn."""
    if max_arity is None:
        max_arity = k + 6
    for p in range(k + 2, max_arity + 1):
        witness = search_m(d, k, theta, p, trials_per_arity, rng,
                           field_spec=field_spec)
        if witness is not None:
            return MBracket(theta=theta, k=k, d=d, upper=p, lower_searched=p - 1,
                            trials_per_arity=trials_per_arity, witness=witness)
    return None


def upper_bound_constant(p: int, k: int, m: int) -> int:
    """Combinatorial bound sum_i C(p, m+i) * C(m+i, k+1) for i = 0..p-m.

    Bounds the expected-count constant for arity-p persistent cycles;
    zero when p < m since no cycle fits on fewer than m points.
    """
    if p < 1 or k < 0 or m < 1:
        raise ValueError(f"invalid parameters p={p}, k={k}, m={m}")
    if p < m:
        return 0
    return sum(math.comb(p, m + i) * math.comb(m + i, k + 1) for i in range(p - m + 1))
