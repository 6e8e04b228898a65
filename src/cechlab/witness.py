"""Explicit witnesses for persistent cycles and arity searches.

A witness is a finite point set Q with persistent_betti(Q, r, theta, k)
at least one: a degree-k cycle alive from radius r out to theta*r. The
deterministic construction places Q on the boundary of a regular
(k+1)-simplex, subdivided until the mesh is fine enough that the union
of r-balls covers the boundary while theta*r-balls still miss the
circumcenter. `perturb_and_verify` moves every point of a witness by a
random draw and ranks the perturbed copies, all of the witness's size,
in batches through the package's one rank pass
(`persistence._persistent_bettis`). The randomized search estimates the
minimal number of points that can support such a cycle by brute
sampling.

The search scores configurations by their best degree-k death/birth
ratio. `_best_intervals` scores any stack of configurations: it takes
them as the components of one complex, builds each one's complete
complex up to dimension k+1 with the package's one builder
(`filtration._component_filtrations`) and reads each one's degree-k
pairs off one pass of its one reducer (`persistence._pivot_rows`). Two
vectorised forms score the k = 1 batches they can: the closed form of
triangles (`_triangle_persistence_ratios`), and `_batch_ratios` for 4 to
11 points over GF(2), a GF(2) reduction of the triangle columns as int64
bitmasks over edge ranks, bit-equal to `_best_intervals`. Other fields
need the reducer: from 6 points on, a complex can hold a triangulated
projective plane, whose H_1 depends on the field. A search scores each
batch one chunk at a time (`_SCORE_CHUNK` configurations for
`_batch_ratios`, `_stack_chunk` for the stacked scorer) and verifies each
chunk's hits before it scores the next, so it stops at the first chunk
that yields a witness.

Each batch's best configuration is refined by `_nelder_mead`, which runs
scipy's Nelder-Mead step for step on many starts at once, so witnesses
do not depend on the installed scipy; scipy's `minimize` is only the
tests' oracle. The triangle search refines all its batches' starts in one
lockstep, scored in closed form. Every other case refines each batch's
start as it comes, scored by `_best_intervals`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import (PointCloud, _batch_sizes, _format_cloud, _parse_cloud, _rows_dist2,
                       _triangle_radii)
from .filtration import _component_filtrations
from .persistence import FieldSpec, GF2, _persistent_bettis, _pivot_rows, persistent_betti
from .properties import _gaps, _pairs
from .sampling import sample_in_ball

__all__ = [
    "CycleWitness",
    "MBracket",
    "construct_witness",
    "perturbation_radius",
    "perturb_and_verify",
    "search_m",
    "bracket_m",
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
    perturbed cloud is tested at radius r + delta with the same theta. The
    copies are drawn one trial after another and ranked in batches of about
    `geometry._BATCH_POINTS` points (`_batch_sizes`; every copy has the
    witness's n points), one rank pass per batch.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if trials == 0:
        warnings.warn("perturb_and_verify called with zero trials; nothing was checked")
        return 1.0
    delta = perturbation_radius(witness.R, witness.r, witness.theta)
    move = delta * delta_scale
    points = witness.points.points
    n, d = points.shape
    successes = 0
    for size in _batch_sizes(trials, n):
        copies = np.concatenate([points + sample_in_ball(n, d, move, rng) for _ in range(size)])
        ranks = _persistent_bettis(copies, [n] * size, witness.r + delta, witness.theta,
                                   witness.k, field_spec)
        successes += int((ranks >= 1).sum())
    return successes / trials


# ---------------------------------------------------------------------------
# Randomized arity search
# ---------------------------------------------------------------------------


def _triangle_persistence_ratios(configs: np.ndarray) -> np.ndarray:
    """death/birth for the 1-cycle of each 3-point configuration (vectorized).

    The cycle of a triangle is born once all edges are present (half the
    longest side) and dies at the miniball radius: the circumradius for
    acute triangles, half the longest side otherwise (ratio 1). Every
    operation is elementwise, so a triangle's ratio does not depend on the
    batch it is scored in.
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


# Largest configuration `_batch_ratios` scores: its C(11, 2) = 55 edge ranks
# are the bits of an int64 column.
_BATCH_MAX_POINTS = 11
# Configurations `search_m` hands `_batch_ratios` at once, and the step at
# which it stops scoring a batch: it verifies each chunk's hits before it
# scores the next chunk. At 4 points the scorer's arrays take about 0.3 MB
# per chunk. A 4-point batch at theta = 1.2 holds about 26 hits, so its
# first chunk nearly always yields the witness.
_SCORE_CHUNK = 1024
# Simplices of any one dimension that `_best_intervals` builds in one call:
# as many as `_SCORE_CHUNK` 4-point configurations hold triangles.
_STACK_SIMPLICES = _SCORE_CHUNK * math.comb(4, 3)


def _stack_chunk(p: int, k: int) -> int:
    """Configurations of p points in one `_best_intervals` call at degree k.

    Each of dimensions 0..k+1 stays within `_STACK_SIMPLICES`: the budget
    is divided by the largest per-dimension simplex count of one
    configuration, C(p, j+1) at dimension j. At least one configuration.
    """
    return max(1, _STACK_SIMPLICES // max(math.comb(p, j + 1) for j in range(k + 2)))


def _best_intervals(configs: np.ndarray, k: int,
                    field_spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Degree-k (birth, death) of largest death/birth of each configuration of an (m, p, d) stack.

    A witness radius exists iff some degree-k interval has death/birth >
    theta. The configurations are the components of one complex in which
    every pair inside one is an edge, so `_component_filtrations` builds
    each one's complete complex up to dimension k+1 as it would alone, and
    one `_pivot_rows` pass over the (k+1)-columns in value order gives
    exactly each diagram's finite degree-k pairs. A pair counts if birth > 0
    and death > birth; ratio ties go to the smallest (birth, death). Returns
    births and deaths, NaN where no pair counts. A stack of more than
    `_stack_chunk(p, k)` configurations is scored in calls of that many,
    so no call builds more than `_STACK_SIMPLICES` simplices of any one
    dimension (or one configuration's) and memory does not grow with m.
    """
    m, p, d = configs.shape
    per_call = _stack_chunk(p, k)
    if m > per_call:
        parts = [_best_intervals(configs[i:i + per_call], k, field_spec)
                 for i in range(0, m, per_call)]
        return np.concatenate([b for b, _ in parts]), np.concatenate([e for _, e in parts])
    first, second = _pairs(p)
    base = (np.arange(m) * p)[:, None]
    edges = np.stack((first + base, second + base), axis=-1).reshape(-1, 2)
    labels = np.repeat(np.arange(m), p)
    simplices, facets = _component_filtrations(
        configs.reshape(-1, d), edges, 0.5 * np.sqrt(_gaps(configs).ravel()), labels,
        np.ones(m, dtype=bool), math.inf, k + 1, np.arange(m))
    order = np.argsort(simplices[k + 1][1], kind="stable")
    rows, cols = _pivot_rows(simplices, k + 1, labels, field_spec.characteristic, order,
                             facets[k + 1])
    birth, death = simplices[k][1][rows], simplices[k + 1][1][cols]
    kept = (birth > 0.0) & (death > birth)
    config, birth, death = labels[simplices[k + 1][0][cols[kept], 0]], birth[kept], death[kept]
    best = np.lexsort((death, birth, -(death / birth), config))
    config, at = np.unique(config[best], return_index=True)
    births, deaths = np.full(m, math.nan), np.full(m, math.nan)
    births[config], deaths[config] = birth[best[at]], death[best[at]]
    return births, deaths


def _highest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each positive int64."""
    low = np.frexp(x.astype(np.float64))[1] - 1
    # Above 2**53 the float conversion can round up to the next power of two.
    return low - ((x >> low) == 0)


def _batch_ratios(configs: np.ndarray) -> np.ndarray:
    """Best degree-1 death/birth over GF(2) of each configuration, 1.0 if none, (m, p, d) -> (m,).

    For 4 <= p <= 11 points, bit-equal to `_best_intervals(configs, 1, GF2)`,
    whose finite pairs are those of the triangle columns. This builds the
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
    birth, death = (float(end[0]) for end in _best_intervals(points[None], k, field_spec))
    if not death > theta * birth:  # NaN: no interval
        return None
    r = math.sqrt(birth * (death / theta))
    cloud = PointCloud(d, points)
    rank = persistent_betti(cloud, r, theta, k, field_spec)
    if rank < 1:
        return None  # borderline roundoff; treat as not found
    return CycleWitness(points=cloud, r=r, theta=theta, k=k,
                        R=theta * r, verified_rank=rank)


# The second probe of a Nelder-Mead step, a * xbar + b * worst, by
# 2 * expand + outside: inside contraction (0.5, 0.5), outside contraction
# (1.5, -0.5), expansion (3, -2).
_PROBE = np.array([[0.5, 0.5], [1.5, -0.5], [3.0, -2.0], [3.0, -2.0]])


def _nelder_mead(objective, starts: np.ndarray, maxfev: int = 400, xatol: float = 1e-4,
                 fatol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead (1965) minimisation from every row of `starts` at once.

    Each row's (x, fun) is bit-identical to scipy's `minimize(objective,
    row, method="Nelder-Mead")` with these options: the same initial
    simplex, the same unstable `argsort` of the vertex values (twice at the
    start, then after every step), the same convergence test and the same
    reflect, expand, contract and shrink arithmetic. No evaluation is made
    past `maxfev`, so a shrink can stop with a vertex moved but its value
    stale, as in scipy. The rows run in lockstep: each step evaluates the
    reflections of all running rows in one `objective` call, then the
    second probes, then the shrunk vertices. `objective` maps an (m, n)
    array of points to their m values.
    """
    runs, n = starts.shape
    sim = np.repeat(starts[:, None, :].astype(np.float64), n + 1, axis=1)
    axis = np.arange(n)
    sim[:, axis + 1, axis] = np.where(starts != 0, 1.05 * starts, 0.00025)
    fsim = np.full((runs, n + 1), np.inf)
    first = min(n + 1, maxfev)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, n)).reshape(runs, first)
    nfev = np.full(runs, first)
    lane = np.arange(runs)[:, None]
    for _ in range(2):
        order = fsim.argsort(axis=1)
        sim, fsim = sim[lane, order], fsim[lane, order]

    x, fun = np.empty((runs, n)), np.empty(runs)
    rows = lane[:, 0]  # the runs still going: the rows of sim, fsim and nfev
    # np.count_nonzero stands for .any() below: on a few rows it costs a third.
    while True:
        stop = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
        if np.count_nonzero(stop):
            stop &= np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
        stop |= nfev >= maxfev
        if np.count_nonzero(stop):
            x[rows[stop]], fun[rows[stop]] = sim[stop, 0], fsim[stop].min(axis=1)
            go = ~stop
            if not np.count_nonzero(go):
                return x, fun
            rows, sim, fsim, nfev = rows[go], sim[go], fsim[go], nfev[go]
            lane = lane[:len(rows)]
        worst, fworst = sim[:, -1], fsim[:, -1]
        xbar = np.add.reduce(sim[:, :-1], axis=1) / n
        xr = 2 * xbar - worst
        fxr = objective(xr)
        nfev += 1
        # Below the best: expand. Below the second worst: keep the reflection.
        # Otherwise contract, outside the simplex if below the worst. A second
        # probe past the budget is not evaluated, and its row stays as it was.
        expand = fxr < fsim[:, 0]
        reflect = (fxr < fsim[:, -2]) > expand
        probe = (nfev < maxfev) > reflect
        if np.count_nonzero(probe):
            outside = fxr < fworst
            coef = _PROBE.take(2 * expand + outside, axis=0)
            x2 = coef[:, :1] * xbar + coef[:, 1:] * worst
            f2 = np.full(len(rows), np.nan)  # no probe: every test below fails
            f2[probe] = objective(x2[probe])
            nfev += probe
            # The probe replaces the worst vertex, else an expanding row keeps
            # the reflection and a contracting row shrinks towards the best.
            keep = np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fworst))
            reflect |= (expand & probe) > keep
            shrink = (probe > expand) > keep
            np.copyto(worst, x2, where=keep[:, None])
            np.copyto(fworst, f2, where=keep)
            if np.count_nonzero(shrink):
                s, f = sim[shrink], fsim[shrink]
                left = (maxfev - nfev[shrink])[:, None]
                moved = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
                s[:, 1:] = np.where((axis <= left)[:, :, None], moved, s[:, 1:])
                evaluated = axis < left
                f[:, 1:][evaluated] = objective(moved[evaluated])
                sim[shrink], fsim[shrink] = s, f
                nfev[shrink] += evaluated.sum(axis=1)
        np.copyto(worst, xr, where=reflect[:, None])
        np.copyto(fworst, fxr, where=reflect)
        order = fsim.argsort(axis=1)
        sim, fsim = sim[lane, order], fsim[lane, order]


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

    Every batch is scored as one stack (`_best_intervals`): the package's
    one builder and one reducer take its configurations as the components
    of one complex. For k = 1, triangles are scored in closed form instead,
    and batches of 4 to 11 points over GF(2) by one vectorised GF(2) pass
    (`_batch_ratios`), bit-equal to the stacked scorer.

    A batch is drawn whole and scored one chunk at a time: `_SCORE_CHUNK`
    configurations for `_batch_ratios`, `_stack_chunk(p, k)` for the stacked
    scorer, the whole batch for triangles. A chunk's hits are verified in
    index order before the next chunk is scored, and the first verified
    one is returned, so the later chunks of that batch are never scored.
    Scores are per configuration and the draw is per batch, so the witness,
    the None and the generator's state are those of scoring the whole
    batch first. A batch with no witness is scored whole before its start
    is taken.

    The local search is `_nelder_mead`, scipy's Nelder-Mead step for step.
    The triangle search refines all its batches together: it keeps each
    batch's start, with the generator's state after that batch's draw, and
    refines the kept starts in one lockstep at the end, or before a later
    batch's sampled candidates are verified. A witness among them puts the
    generator back to its batch's state, so the witness, the None and the
    generator's state are those of refining each batch as it comes. Every
    other case refines each batch's start as it comes, scored by
    `_best_intervals`: deferring it would score every later batch before
    an early refinement's witness could return.
    """
    if d < 1 or k < 1 or p < 1:
        raise ValueError(f"invalid search parameters d={d}, k={k}, p={p}")
    if theta < 1.0 or not math.isfinite(theta):
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    batch = 4096
    triangles = k == 1 and p == 3

    def score(configs: np.ndarray) -> np.ndarray:
        if triangles:
            return _triangle_persistence_ratios(configs)
        births, deaths = _best_intervals(configs, k, field_spec)
        return np.fmax(deaths / births, 1.0)  # 1.0 where no pair counts (NaN)

    # The batch scorer and the configurations it scores at once.
    if triangles:
        scorer, chunk = score, batch
    elif k == 1 and field_spec.characteristic == 2 and 4 <= p <= _BATCH_MAX_POINTS:
        scorer, chunk = _batch_ratios, _SCORE_CHUNK
    else:
        scorer, chunk = score, _stack_chunk(p, k)

    def objective(xs: np.ndarray) -> np.ndarray:
        return -score(xs.reshape(-1, p, d))
    # Batch starts not yet refined, with the generator's state after their batch.
    pending: list[tuple[np.ndarray, dict]] = []

    def refine_pending() -> CycleWitness | None:
        starts, states = zip(*pending)
        pending.clear()
        x, fun = _nelder_mead(objective, np.stack(starts))
        for i in np.flatnonzero(-fun > theta):
            witness = _witness_from_config(x[i].reshape(p, d), d, k, theta, field_spec)
            if witness is not None:
                rng.bit_generator.state = states[i]
                return witness
        return None

    done = 0
    while done < trials:
        count = min(batch, trials - done)
        configs = rng.random((count, p, d))
        ratios = np.empty(count)
        for lo in range(0, count, chunk):
            ratios[lo:lo + chunk] = scorer(configs[lo:lo + chunk])
            hits = lo + np.flatnonzero(ratios[lo:lo + chunk] > theta)
            # Earlier batches' refinements come before this batch's candidates.
            if hits.size and pending:
                witness = refine_pending()
                if witness is not None:
                    return witness
            for i in hits:
                witness = _witness_from_config(configs[i], d, k, theta, field_spec)
                if witness is not None:
                    return witness
        if refine:
            # A copy: a view would keep the whole batch alive while it waits.
            start = configs[int(ratios.argmax())].reshape(-1).copy()
            pending.append((start, rng.bit_generator.state))
            if not triangles:
                witness = refine_pending()
                if witness is not None:
                    return witness
        done += count
    return refine_pending() if pending else None


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

