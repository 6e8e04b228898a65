"""Finite geometric properties of point sets and their subset counts.

A property descriptor carries an arity p, a scale r and a locality
factor C with the guarantee: indicator(Y) = 1 implies diam(Y) <= C*r*p.
That bound is what makes counting tractable: every qualifying p-subset
of a cloud is a clique of the geometric graph at scale C*r*p, so no
count evaluates a property outside those cliques. The tighter the
bound, the fewer the candidates: `zeta` at p <= k+2 points declares its
exact locality, 2r (C = 2/p, with the neighbour layer's relative slack),
since a k-cycle on k+2 points needs every pair as an edge of Cech_r; above
k+2 points it declares 2*theta*r*p.

Scale conventions. Connectivity-flavored properties (`conn`, `comp`)
look at components of the union of r-balls, so two points interact up
to distance 2r. Graph-isomorphism properties (`iso_graph`) use the
geometric graph at scale r, where the cutoff is r itself, and look its
pair pattern up in the template's orbit under vertex permutations. `spread`
demands all pairwise gaps exceed r while the diameter stays below r*p.
Every pair test is geometry's closed rule: squared distance <= cutoff^2.

Isolation (`sep`) is read off the same component layer that splits
`persistent_betti`: Y is isolated at r (no outside point within 2r,
closed) exactly when it is a union of connected components of the
geometric graph at 2r. A `ContextIndicator`'s `labels` label the graph
at 2r of a batch of stacked clouds from one neighbour pass
(`geometry._near_pairs`); the trivial context makes each point a
component. A count makes one pass for both its labels and its locality
pairs, at the larger cutoff (`_reach`), and each keeps the candidates
that pass its own closed test. One enumerator, `_unions`, serves every
count: over a whole batch in numpy, it grows the p-point unions of
components that are cliques at the locality radius, level by level, with
the clique step that grows the Cech simplices (`geometry._next_cliques`).
These are the isolated p-cliques, or in the trivial context all
p-cliques, so `count_property` is `subset_count` in the trivial context.
Both match exhaustive enumeration exactly (tested).

Indicators are stacked: a descriptor's indicator takes an array
(m, p, d) of m configurations and returns m booleans, and calling it on
one configuration is the stack of one. `subset_counts` evaluates the
base once on the unions of a whole batch, `estimate_mu` once on all its
configurations, and `palm_check` and `convergence_diagnostic` once per
batch of clouds, each batch drawn as one stack (`sampling._sample_stack`).
`zeta` hands its stack to the rank pass behind `persistent_bettis`, with
the pairs and squared distances `_gaps` already gave it, so the rank pass
makes no neighbour query; `iso_graph`, `spread` and `conn` test the pairs of
the stack in one `_rows_dist2` call, and `iso_graph` then answers the
whole stack with one `np.isin`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import (_QUERY_SLACK, PointCloud, _batch_sizes, _labels, _near_pairs,
                       _next_cliques, _rows_dist2, _stacked, ball_volume)
from .persistence import FieldSpec, GF2, _persistent_bettis
from .sampling import Density, _sample_stack, sample_binomial, sample_in_ball

__all__ = [
    "SmallGraph",
    "PropertyDescriptor",
    "ContextIndicator",
    "SubsetPropertyDescriptor",
    "iso_graph",
    "spread",
    "conn",
    "sep",
    "comp",
    "zeta",
    "upsilon",
    "trivial_context",
    "count_property",
    "subset_count",
    "subset_counts",
    "component_count",
    "estimate_mu",
    "MuEstimate",
    "palm_check",
    "PalmResult",
    "convergence_diagnostic",
    "DiagnosticRow",
]

# Templates are decided by lookup in their orbit under all p! vertex
# permutations: 8! = 40,320 permutations build in about 50 ms (one core of a
# 2-core x86 machine, numpy 2.4), while 9! = 362,880 would need codes of 36 bits.
_ISO_MAX_VERTICES = 8


# ---------------------------------------------------------------------------
# Small graph templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallGraph:
    """Undirected graph on vertices 0..n-1, at most `_ISO_MAX_VERTICES` of them."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if self.n > _ISO_MAX_VERTICES:
            raise ValueError(f"graphs limited to {_ISO_MAX_VERTICES} vertices, got {self.n}")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) is not canonical for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "SmallGraph":
        canon = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return SmallGraph(n, canon)

    @staticmethod
    def complete(n: int) -> "SmallGraph":
        return SmallGraph.from_edges(n, combinations(range(n), 2))

    @staticmethod
    def path(n: int) -> "SmallGraph":
        return SmallGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "SmallGraph":
        if n < 3:
            raise ValueError("cycles need at least three vertices")
        return SmallGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def is_connected(self) -> bool:
        return not _labels(self.n, np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)).any()


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyDescriptor:
    """Finite geometric property: indicator on point sets of a fixed arity.

    The indicator takes a stack (m, p, d) of m configurations and returns m
    booleans (a scalar is taken for all m). Indicators must be translation
    invariant and scaling equivariant in (r, Y); `diam_factor` is the
    locality constant C with indicator(Y) = 1 => diam(Y) <= C * scale * arity.
    """

    name: str
    arity: int
    scale: float
    diam_factor: float
    indicator: Callable[[np.ndarray], np.ndarray | bool]

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be at least 1, got {self.arity}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not (self.diam_factor > 0.0) or not math.isfinite(self.diam_factor):
            raise ConfigurationError(
                f"locality factor must be positive and finite, got {self.diam_factor}; "
                "properties without a diameter bound cannot be counted")

    def __call__(self, points: np.ndarray) -> int:
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != self.arity:
            return 0
        return int(np.ravel(self.indicator(points[None]))[0])

    def holds(self, stack: np.ndarray) -> np.ndarray:
        """The indicator on each configuration of a stack (m, arity, d), as m booleans."""
        stack = np.asarray(stack, dtype=np.float64)
        if not len(stack):
            return np.zeros(0, dtype=bool)
        return np.broadcast_to(np.asarray(self.indicator(stack), dtype=bool), (len(stack),))

    def locality_radius(self) -> float:
        return self.diam_factor * self.scale * self.arity


@dataclass(frozen=True)
class ContextIndicator:
    """Indicator of a subset within its ambient cloud: any subset, or isolation.

    With an isolation `scale` r, a subset passes when no outside point lies
    within 2r of it: when it is a union of components of the cloud's
    geometric graph at 2r (`labels`). Without a scale (the trivial context)
    every subset passes.
    """

    name: str
    scale: float | None = None

    @property
    def trivial(self) -> bool:
        return self.scale is None

    def labels(self, points: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """Component labels at 2*scale of a batch of clouds stacked one after another.

        One neighbour pass (`geometry._near_pairs`) and one labelling serve
        the batch; components are numbered by smallest member, so a cloud's
        labels minus its first point's are that cloud's own labels. In the
        trivial context every point is a component of its own.
        """
        if self.trivial:
            return np.arange(len(points))
        return self._labelled(len(points), *_near_pairs(points, sizes, 2.0 * self.scale))

    def _labelled(self, n: int, pairs: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """`labels` of a batch of n points from its `_near_pairs` at 2*scale or beyond.

        The pairs at distance <= 2*scale are those whose squared distance
        `d2` is <= (2*scale)**2, the closed test of `geometry._close_pairs`.
        """
        if self.trivial:
            return np.arange(n)
        cutoff = 2.0 * self.scale
        return _labels(n, pairs[d2 <= cutoff * cutoff])

    def __mul__(self, base: PropertyDescriptor) -> "SubsetPropertyDescriptor":
        return SubsetPropertyDescriptor(base=base, context=self)


@dataclass(frozen=True)
class SubsetPropertyDescriptor:
    """Product h(Y, X) = context(Y, X) * base(Y); zero unless Y is a subset of X."""

    base: PropertyDescriptor
    context: ContextIndicator

    @property
    def name(self) -> str:
        return f"{self.context.name}*{self.base.name}"

    @property
    def arity(self) -> int:
        return self.base.arity


def trivial_context() -> ContextIndicator:
    return ContextIndicator(name="any")


# ---------------------------------------------------------------------------
# Built-in properties
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pairs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(p, 1)`, made once per arity and shared read-only."""
    first, second = np.triu_indices(p, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _gaps(stack: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs `_pairs(p)` of each configuration, (m, C(p,2)).

    `_rows_dist2` sums as `_dist2` does, so each pair test is the scalar one.
    """
    m, p, d = stack.shape
    first, second = _pairs(p)
    gaps = _rows_dist2(stack[:, first].reshape(-1, d), stack[:, second].reshape(-1, d))
    return gaps.reshape(m, len(first))


def iso_graph(gamma: SmallGraph, r: float, p: int) -> PropertyDescriptor:
    """Indicator that the geometric graph of Y at scale r is isomorphic to gamma.

    gamma must be connected (so the property is local with C = 1) and
    must have exactly p vertices. A pair pattern on p labelled vertices is
    coded with one bit per pair of `_pairs(p)`. Two graphs on p vertices
    are isomorphic exactly when one edge set is the image of the other
    under a vertex permutation, so the codes of gamma's images under all
    p! permutations (its orbit) are built once, and a configuration holds
    when the code of its close pairs is among them.
    """
    if gamma.n != p:
        raise ValueError(f"arity {p} does not match the template's {gamma.n} vertices")
    if not gamma.is_connected():
        raise ValueError("isomorphism templates must be connected")

    first, second = _pairs(p)
    bit = np.zeros((p, p), dtype=np.int64)
    bit[first, second] = bit[second, first] = np.int64(1) << np.arange(len(first))
    images = np.array(list(permutations(range(p))))
    ends = np.array(sorted(gamma.edges), dtype=np.intp).reshape(-1, 2)
    orbit = np.unique(bit[images[:, ends[:, 0]], images[:, ends[:, 1]]].sum(axis=1))
    weights = bit[first, second]

    def indicator(stack: np.ndarray) -> np.ndarray:
        return np.isin((_gaps(stack) <= r * r) @ weights, orbit)

    return PropertyDescriptor(name=f"iso[{gamma.n}v{len(gamma.edges)}e]", arity=p,
                              scale=r, diam_factor=1.0, indicator=indicator)


def spread(r: float, p: int) -> PropertyDescriptor:
    """All pairwise gaps exceed r while the diameter stays within r*p."""

    lo2 = r * r
    hi2 = (r * p) * (r * p)

    def indicator(stack: np.ndarray) -> np.ndarray:
        gaps = _gaps(stack)
        return (gaps > lo2).all(axis=1) & (gaps <= hi2).all(axis=1)

    return PropertyDescriptor(name="spread", arity=p, scale=r, diam_factor=1.0,
                              indicator=indicator)


def conn(r: float, p: int) -> PropertyDescriptor:
    """The union of r-balls around Y is connected (gaps of at most 2r).

    Locality needs C = 2: a connected chain of p balls can stretch to
    diameter 2r(p-1).
    """

    cutoff = 2.0 * r
    first, second = _pairs(p)

    def indicator(stack: np.ndarray) -> np.ndarray:
        # One labelling of the whole stack, its configurations numbered one after another.
        config, pair = np.nonzero(_gaps(stack) <= cutoff * cutoff)
        pairs = np.column_stack((first[pair], second[pair])) + (config * p)[:, None]
        labels = _labels(len(stack) * p, pairs).reshape(-1, p)
        return (labels == labels[:, :1]).all(axis=1)

    return PropertyDescriptor(name="conn", arity=p, scale=r, diam_factor=2.0,
                              indicator=indicator)


def sep(r: float) -> ContextIndicator:
    """Isolation: every outside point stays strictly farther than 2r from Y.

    Y is isolated exactly when it is a union of connected components of
    the closed geometric graph at 2r, so one labelling of the cloud
    answers every subset: Y passes when the components of its members
    hold |Y| points in total, and `subset_count` enumerates the unions
    themselves.
    """
    return ContextIndicator(name=f"sep[{r:g}]", scale=r)


def comp(r: float, p: int) -> SubsetPropertyDescriptor:
    """Isolated connected component of the union of r-balls."""
    return sep(r) * conn(r, p)


def zeta(r: float, p: int, theta: float, k: int,
         field_spec: FieldSpec = GF2) -> PropertyDescriptor:
    """Y alone supports a degree-k cycle alive from radius r through theta*r.

    The indicator also clamps the diameter at the locality radius, and
    ranks only the configurations within it. For p <= k+2 that radius is
    2r, with the neighbour layer's relative slack (`geometry._QUERY_SLACK`)
    so that a pair at exactly 2r stays in: over any field a nonzero k-cycle
    on k+2 points is a multiple of the boundary of their (k+1)-simplex, so
    it needs all k+2 of its k-faces in Cech_r, and with them every pair as
    an edge, within 2r; fewer points carry no k-cycle. For p > k+2 it is
    2*theta*r*p: a persistent cycle that needs all p points is connected
    at 2*theta*r. Either way the clamp rejects no configuration that holds.
    """
    if theta < 1.0:
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 1:
        raise ValueError(f"cycle degree must be at least 1, got {k}")
    if p < 1:
        raise ValueError(f"arity must be at least 1, got {p}")
    factor = 2.0 / p * _QUERY_SLACK if p <= k + 2 else 2.0 * theta
    cap = factor * r * p  # `locality_radius()`, in its order of operations

    first, second = _pairs(p)

    def indicator(stack: np.ndarray) -> np.ndarray:
        gaps = _gaps(stack)
        local = ~(gaps > cap * cap).any(axis=1)
        ranked = stack[local]
        if not np.isfinite(ranked).all():
            raise ValueError("coordinates must be finite")
        # Every pair of a configuration is a candidate, with its squared distance
        # from `_gaps`: the neighbour query's pairs, with no query.
        base = (np.arange(len(ranked)) * p)[:, None]
        pairs = np.stack((first + base, second + base), axis=-1).reshape(-1, 2)
        ranks = _persistent_bettis(ranked.reshape(-1, stack.shape[2]), [p] * len(ranked),
                                   r, theta, k, field_spec, (pairs, gaps[local].ravel()))
        held = np.zeros(len(stack), dtype=bool)
        held[local] = ranks >= 1
        return held

    return PropertyDescriptor(name=f"zeta[k={k},theta={theta:g}]", arity=p, scale=r,
                              diam_factor=factor, indicator=indicator)


def upsilon(r: float, p: int, theta: float, k: int,
            field_spec: FieldSpec = GF2) -> SubsetPropertyDescriptor:
    """Isolated persistent cycle: sep at scale theta*r times zeta."""
    return sep(theta * r) * zeta(r, p, theta, k, field_spec)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def _unions(p: int, labels: np.ndarray, pairs: np.ndarray, cloud_of: np.ndarray) -> np.ndarray:
    """The p-point unions of components that are cliques at the pairs' radius, as (m, p) rows.

    `labels` numbers the components of a batch of stacked clouds by smallest
    member, `pairs` are the batch's pairs at the locality radius and
    `cloud_of` is each point's cloud. A component is kept when it can join
    a union of p points (it has p points, or fewer and a pair to a component
    that fits beside it) and is a clique: 2 * (inner pairs) = s(s - 1). Two
    kept components are adjacent when they fit together and all s_a * s_b
    cross pairs are pairs. Unions are the cliques of that adjacency, grown
    level by level (`geometry._next_cliques`): the unions of fewer than p
    points grow, those of p points are kept and larger ones dropped. Rows
    list ascending point indices, in ascending order: each cloud's
    `itertools.combinations` order, cloud after cloud. Raises
    ConfigurationError, before making them, when one cloud's candidates for
    a level number more than `geometry._MAX_CANDIDATES`.
    """
    size = np.bincount(labels)
    k = len(size)
    a, b = labels[pairs[:, 0]], labels[pairs[:, 1]]
    inner = a == b
    fits = ~inner & (size[a] + size[b] <= p)
    kept = size == p
    kept[a[fits]] = kept[b[fits]] = True
    kept &= 2 * np.bincount(a[inner], minlength=k) == size * (size - 1)
    cross = fits & kept[a] & kept[b]
    keys, hits = np.unique(np.minimum(a, b)[cross] * k + np.maximum(a, b)[cross],
                           return_counts=True)
    keys = keys[hits == size[keys // k] * size[keys % k]]
    adjacent = np.column_stack(np.divmod(keys, k))  # (lo, hi) of adjacent components
    order = np.argsort(labels, kind="stable")  # the points component by component
    first = np.cumsum(size) - size
    owner = cloud_of[order[first]]
    grown = np.flatnonzero(kept)[:, None]
    faces, done = np.zeros_like(grown), []
    while True:
        total = size[grown].sum(axis=1)
        done.append(grown[total == p].ravel())
        grown, faces = grown[total < p], faces[total < p]
        if not len(grown):
            break
        grown, faces = _next_cliques(
            grown, faces, adjacent, owner,
            f"a cloud needs {{}} candidate unions of {grown.shape[1] + 1} components")
    # Each union's components, then their points, p per union.
    members = np.concatenate(done)
    reps = size[members]
    rows = order[np.arange(reps.sum()) + np.repeat(first[members] - (np.cumsum(reps) - reps), reps)]
    rows = np.sort(rows.reshape(-1, p), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def count_property(g: PropertyDescriptor, cloud: PointCloud) -> int:
    """Number of p-subsets satisfying g; locality-pruned, exact.

    `subset_count` with the trivial context: the p-cliques of the geometric
    graph at the locality radius, evaluated in one stacked call.
    """
    return subset_count(trivial_context() * g, cloud)


def subset_count(h: SubsetPropertyDescriptor, cloud: PointCloud) -> int:
    """Number of p-subsets of the cloud satisfying the base property within its context.

    `subset_counts` on a batch of one cloud.
    """
    return int(subset_counts(h, [cloud])[0])


def subset_counts(h: SubsetPropertyDescriptor, clouds: Sequence[PointCloud]) -> np.ndarray:
    """`subset_count` of each cloud of a batch, with one base evaluation for all of them.

    The clouds are stacked one after another. One neighbour pass
    (`geometry._near_pairs`, at `_reach(h)`) serves the whole batch: its
    pairs within twice the context's scale label the components of the
    context's graph in every cloud (with the trivial context each point is
    its own component), and its pairs within the base's locality radius
    feed `_unions`. That grows the p-point unions of components that are
    cliques there, for the whole batch at once: the isolated p-cliques, or
    with the trivial context all p-cliques. The base is evaluated once, on
    the stack of them all, and its hits are summed per cloud. Returns one
    count per cloud, as an int64 array.
    """
    if not clouds:
        return np.zeros(0, dtype=np.int64)
    return _subset_counts(h, *_stacked(clouds))


def _reach(h: SubsetPropertyDescriptor) -> float:
    """The neighbour cutoff `_subset_counts` needs: the locality radius, or 2*scale if larger."""
    local = h.base.locality_radius()
    return local if h.context.trivial else max(local, 2.0 * h.context.scale)


def _subset_counts(h: SubsetPropertyDescriptor, points: np.ndarray, sizes: Sequence[int],
                   near: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """`subset_counts` of a nonempty batch of clouds stacked in `points`, of `sizes`.

    `near` is the batch's `_near_pairs` at `_reach(h)` or beyond, with their
    squared distances; without it, one query makes them. Each consumer keeps
    the candidates that pass its own closed test on those squared distances.
    """
    pairs, d2 = _near_pairs(points, sizes, _reach(h)) if near is None else near
    local = h.base.locality_radius()
    cloud_of = np.repeat(np.arange(len(sizes)), sizes)
    rows = _unions(h.arity, h.context._labelled(len(points), pairs, d2),
                   pairs[d2 <= local * local], cloud_of)
    return np.bincount(cloud_of[rows[:, 0]][h.base.holds(points[rows])], minlength=len(sizes))


def component_count(gamma: SmallGraph, cloud: PointCloud, r: float) -> int:
    """Connected components of the geometric graph at scale r isomorphic to gamma.

    The graph's edges have length <= r, so a component is a subset isolated
    at r / 2 (no outside point within 2 * (r / 2), which is r exactly) whose
    own graph is connected: counted as such subsets whose graph matches the
    connected template.
    """
    if gamma.n < 2:
        raise ValueError("component templates need at least two vertices")
    if not gamma.is_connected():
        raise ValueError("component templates must be connected")
    return subset_count(sep(r / 2) * iso_graph(gamma, r, gamma.n), cloud)


# ---------------------------------------------------------------------------
# Scaling limits: the mu integral and the Palm identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuEstimate:
    value: float
    std_error: float


def estimate_mu(g: PropertyDescriptor, f: Density, samples: int,
                rng: np.random.Generator) -> MuEstimate:
    """Monte Carlo estimate of the limiting constant

        mu = (1/p!) * integral f^p * integral g({0, x_1, .., x_{p-1}}) dx.

    The descriptor must be normalized to scale r = 1. One point is drawn
    from f (importance sampling for the f^p factor), the other p-1
    uniformly from the locality ball of radius C*p about the origin. The
    anchors are drawn and weighed first; then the ball draws of each
    configuration whose anchor has positive density, in that order, and
    the indicator is evaluated on all of them in one stacked call.
    """
    if g.scale != 1.0:
        raise ValueError(f"estimate_mu expects a descriptor at scale 1, got {g.scale}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    p = g.arity
    d = f.dim
    radius = g.diam_factor * p
    weight = ball_volume(d, radius) ** (p - 1) / math.factorial(p)
    anchors = sample_binomial(samples, f, rng).points
    # Python's float ** int per factor: numpy's array power takes fast paths
    # (x ** 2 is x * x) that need not round as pow does.
    factors = np.array([value ** (p - 1) for value in f._values(anchors)])
    configs = np.zeros((samples, p, d))  # the first point of each at the origin
    live = factors != 0.0
    if p > 1:
        for i in np.flatnonzero(live).tolist():
            configs[i, 1:] = sample_in_ball(p - 1, d, radius, rng)
    values = np.zeros(samples)
    values[live] = weight * factors[live] * g.holds(configs[live])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MuEstimate(mean, se)


def _poisson_counts(h: SubsetPropertyDescriptor, n: float, f: Density, trials: int,
                    rng: np.random.Generator) -> np.ndarray:
    """`subset_count` of `trials` clouds `sample_poisson(n, f, rng)`, drawn in order, as floats.

    The clouds are drawn and counted in batches (`sampling._sample_stack`).
    """
    counts = [_subset_counts(h, *_sample_stack(n, f, repeat(rng, size)))
              for size in _batch_sizes(trials, n)]
    return np.concatenate(counts).astype(np.float64)


def _anchor_holds(h: SubsetPropertyDescriptor, points: np.ndarray,
                  sizes: Sequence[int]) -> np.ndarray:
    """Whether h holds for the first p points of each cloud of a stacked batch, in its cloud.

    They are isolated when the components of the context's graph that they
    touch hold no other point; the base is evaluated once, on those that are.
    """
    labels = h.context.labels(points, sizes)
    heads = (np.cumsum(sizes) - sizes)[:, None] + np.arange(h.arity)
    touched = labels[heads]
    inside = np.bincount(touched.ravel(), minlength=len(points))
    isolated = (np.bincount(labels)[touched] == inside[touched]).all(axis=1)
    held = np.zeros(len(sizes), dtype=bool)
    held[isolated] = h.base.holds(points[heads[isolated]])
    return held


@dataclass(frozen=True)
class PalmResult:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    agree: bool


def _three_sigma_overlap(a: float, a_se: float, b: float, b_se: float) -> bool:
    return abs(a - b) <= 3.0 * (a_se + b_se)


def palm_check(h: SubsetPropertyDescriptor, n: float, f: Density, trials: int,
               rng: np.random.Generator, rhs_trials: int | None = None) -> PalmResult:
    """Empirical check of the Palm identity for Poisson processes:

        E[sum over p-subsets of h]  ==  (n^p / p!) * E[h(X_p, X_p + P_n)]

    with X_p an independent binomial sample. Both sides are estimated by
    Monte Carlo and compared at three standard errors. The clouds are drawn
    one trial after another, in the order of a per-trial loop
    (`sampling._sample_stack`), and each side is evaluated in batches of
    about `geometry._BATCH_POINTS` points. Each side needs two trials or more
    for its standard error.
    """
    if trials < 2:
        raise ValueError(f"need at least two trials, got {trials}")
    rhs_trials = trials if rhs_trials is None else rhs_trials
    if rhs_trials < 2:
        raise ValueError(f"need at least two right-hand trials, got {rhs_trials}")
    p = h.arity
    lhs_vals = _poisson_counts(h, n, f, trials, rng)
    lhs = float(lhs_vals.mean())
    lhs_se = float(lhs_vals.std(ddof=1) / math.sqrt(trials))

    # Each right-hand trial draws X_p, then, unless every subset is in context, P_n.
    ambient = None if h.context.trivial else n
    factor = n ** p / math.factorial(p)
    rhs_vals = np.concatenate([
        _anchor_holds(h, *_sample_stack(ambient, f, repeat(rng, size), anchors=p))
        for size in _batch_sizes(rhs_trials, p if ambient is None else p + n)]).astype(np.float64)
    rhs = factor * float(rhs_vals.mean())
    rhs_se = factor * float(rhs_vals.std(ddof=1) / math.sqrt(rhs_trials))
    return PalmResult(lhs, lhs_se, rhs, rhs_se,
                      _three_sigma_overlap(lhs, lhs_se, rhs, rhs_se))


# ---------------------------------------------------------------------------
# Convergence diagnostics for subset counts under a radius law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticRow:
    n: float
    r: float
    count_mean: float
    count_se: float
    ratio: float
    ratio_se: float


def convergence_diagnostic(family: Callable[[float], PropertyDescriptor | SubsetPropertyDescriptor],
                           f: Density, c: float, q: float, n_grid: Sequence[float],
                           trials: int, rng: np.random.Generator) -> list[DiagnosticRow]:
    """Empirical count means against the scaling n * (r_n^d * n)^(p-1).

    The radius law r_n = c * n^q must be subcritical (q < -1/d); the
    reported ratio converges to the property's mu constant.
    """
    d = f.dim
    if not (q < -1.0 / d):
        raise ConfigurationError(
            f"radius law exponent q={q} is not subcritical for d={d}; need q < {-1.0 / d}")
    if not (c > 0.0) or not math.isfinite(c):
        raise ConfigurationError(f"radius law constant must be positive, got {c}")
    if trials < 2:
        raise ConfigurationError(f"need at least two trials per n, got {trials}")
    rows: list[DiagnosticRow] = []
    for n in n_grid:
        r_n = c * float(n) ** q
        descriptor = family(r_n)
        if not isinstance(descriptor, SubsetPropertyDescriptor):
            descriptor = trivial_context() * descriptor
        counts = _poisson_counts(descriptor, n, f, trials, rng)
        p = descriptor.arity
        denom = float(n) * (r_n ** d * float(n)) ** (p - 1)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(trials))
        rows.append(DiagnosticRow(n=float(n), r=r_n, count_mean=mean, count_se=se,
                                  ratio=mean / denom, ratio_se=se / denom))
    return rows

