"""Finite geometric properties of point sets and their subset counts.

A property descriptor carries an arity p, a scale r and a locality
factor C with the guarantee: indicator(Y) = 1 implies diam(Y) <= C*r*p.
That bound is what makes counting tractable: every qualifying p-subset
of a cloud is a clique of the geometric graph at scale C*r*p, so no
count evaluates a property outside those cliques. Plain counts enumerate
the cliques; isolated counts enumerate only the unions of components
(below) that are cliques. Both match exhaustive enumeration exactly
(tested).

Scale conventions. Connectivity-flavored properties (`conn`, `comp`)
look at components of the union of r-balls, so two points interact up
to distance 2r. Graph-isomorphism properties (`iso_graph`) use the
geometric graph at scale r, where the cutoff is r itself. `spread`
demands all pairwise gaps exceed r while the diameter stays below r*p.
Every pair test is geometry's closed rule: squared distance <= cutoff^2.

Isolation (`sep`) is read off the same component layer that splits
`persistent_betti`: Y is isolated at r (no outside point within 2r,
closed) exactly when it is a union of connected components of the
geometric graph at 2r. `subset_count` therefore grows p-point unions of
components, never the cliques that isolation would reject.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import (PointCloud, _brute_force_edges, _dist2, _tree_pairs, ball_volume,
                       component_labels, geometric_graph)
from .persistence import FieldSpec, GF2, persistent_betti
from .sampling import Density, sample_binomial, sample_in_ball, sample_poisson

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
    "component_count",
    "estimate_mu",
    "MuEstimate",
    "palm_check",
    "PalmResult",
    "convergence_diagnostic",
    "DiagnosticRow",
]

_ISO_MAX_VERTICES = 8


# ---------------------------------------------------------------------------
# Small graphs and brute-force isomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallGraph:
    """Undirected graph on vertices 0..n-1, small enough for brute force."""

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

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(sorted(deg))

    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    def is_connected(self) -> bool:
        return _connected(self.n, self.edges)


def _graphs_isomorphic(gamma: SmallGraph, edges: Collection[tuple[int, int]], n: int) -> bool:
    """Brute-force isomorphism of gamma against an edge set on 0..n-1.

    Vertex permutations are pruned by degree: a vertex may only map to a
    vertex of equal degree.
    """
    if n != gamma.n or len(edges) != len(gamma.edges):
        return False
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    gdeg = [0] * n
    for i, j in gamma.edges:
        gdeg[i] += 1
        gdeg[j] += 1
    if sorted(deg) != sorted(gdeg):
        return False
    candidates = [tuple(v for v in range(n) if deg[v] == gdeg[u]) for u in range(n)]
    gadj = gamma.adjacency_sets()
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(u: int) -> bool:
        if u == n:
            return True
        for v in candidates[u]:
            if v in used:
                continue
            ok = True
            for w in gadj[u]:
                if w in mapping and mapping[w] not in adj[v]:
                    ok = False
                    break
            for w in range(u):
                if w not in gadj[u] and mapping[w] in adj[v]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used.add(v)
                if extend(u + 1):
                    return True
                used.remove(v)
                del mapping[u]
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyDescriptor:
    """Finite geometric property: indicator on point sets of a fixed arity.

    Indicators must be translation invariant and scaling equivariant in
    (r, Y); `diam_factor` is the locality constant C with
    indicator(Y) = 1 => diam(Y) <= C * scale * arity.
    """

    name: str
    arity: int
    scale: float
    diam_factor: float
    indicator: Callable[[np.ndarray], bool]

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
        return int(bool(self.indicator(points)))

    def locality_radius(self) -> float:
        return self.diam_factor * self.scale * self.arity


@dataclass(frozen=True)
class ContextIndicator:
    """Indicator of a subset within its ambient cloud: any subset, or isolation.

    `labels` numbers the components of a cloud's graph, and a subset passes
    when it is a union of components. Without `labels` (the trivial
    context) every subset passes.
    """

    name: str
    labels: Callable[[PointCloud], np.ndarray] | None = None

    @property
    def trivial(self) -> bool:
        return self.labels is None

    def make(self, cloud: PointCloud) -> Callable[[Sequence[int]], bool]:
        """Indicator of index subsets of this cloud."""
        if self.labels is None:
            return lambda indices: True
        labels = self.labels(cloud)
        sizes = np.bincount(labels).tolist()
        labels = labels.tolist()

        def check(indices: Sequence[int]) -> bool:
            touched = {labels[i] for i in indices}
            return sum(sizes[c] for c in touched) == len(indices)

        return check

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

    def evaluate(self, cloud: PointCloud, indices: Sequence[int]) -> int:
        ctx = self.context.make(cloud)
        if not ctx(indices):
            return 0
        return self.base(cloud.points[list(indices)])


def trivial_context() -> ContextIndicator:
    return ContextIndicator(name="any")


# ---------------------------------------------------------------------------
# Built-in properties
# ---------------------------------------------------------------------------


def _pairwise_dist2(points: np.ndarray) -> list[float]:
    pts = points.tolist()
    return [_dist2(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]


def _connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def iso_graph(gamma: SmallGraph, r: float, p: int) -> PropertyDescriptor:
    """Indicator that the geometric graph of Y at scale r is isomorphic to gamma.

    gamma must be connected (so the property is local with C = 1) and
    must have exactly p vertices.
    """
    if gamma.n != p:
        raise ValueError(f"arity {p} does not match the template's {gamma.n} vertices")
    if not gamma.is_connected():
        raise ValueError("isomorphism templates must be connected")

    def indicator(points: np.ndarray) -> bool:
        return _graphs_isomorphic(gamma, _brute_force_edges(points.tolist(), r), p)

    return PropertyDescriptor(name=f"iso[{gamma.n}v{len(gamma.edges)}e]", arity=p,
                              scale=r, diam_factor=1.0, indicator=indicator)


def spread(r: float, p: int) -> PropertyDescriptor:
    """All pairwise gaps exceed r while the diameter stays within r*p."""

    def indicator(points: np.ndarray) -> bool:
        lo2 = r * r
        hi2 = (r * p) * (r * p)
        d2s = _pairwise_dist2(points)
        return all(d2 > lo2 for d2 in d2s) and all(d2 <= hi2 for d2 in d2s)

    return PropertyDescriptor(name="spread", arity=p, scale=r, diam_factor=1.0,
                              indicator=indicator)


def conn(r: float, p: int) -> PropertyDescriptor:
    """The union of r-balls around Y is connected (gaps of at most 2r).

    Locality needs C = 2: a connected chain of p balls can stretch to
    diameter 2r(p-1).
    """

    def indicator(points: np.ndarray) -> bool:
        return _connected(points.shape[0], _brute_force_edges(points.tolist(), 2.0 * r))

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
    return ContextIndicator(name=f"sep[{r:g}]",
                            labels=lambda cloud: component_labels(cloud, 2.0 * r))


def comp(r: float, p: int) -> SubsetPropertyDescriptor:
    """Isolated connected component of the union of r-balls."""
    return sep(r) * conn(r, p)


def zeta(r: float, p: int, theta: float, k: int,
         field_spec: FieldSpec = GF2) -> PropertyDescriptor:
    """Y alone supports a degree-k cycle alive from radius r through theta*r.

    The indicator also enforces diam(Y) <= 2*theta*r*p. Minimal cycles
    are connected at scale 2r, so the clamp never rejects them; it only
    keeps the property local for arities above the minimum.
    """
    if theta < 1.0:
        raise ValueError(f"persistence factor must satisfy theta >= 1, got {theta}")
    if k < 1:
        raise ValueError(f"cycle degree must be at least 1, got {k}")
    cap = 2.0 * theta * r * p

    def indicator(points: np.ndarray) -> bool:
        if any(d2 > cap * cap for d2 in _pairwise_dist2(points)):
            return False
        cloud = PointCloud(points.shape[1], points)
        return persistent_betti(cloud, r, theta, k, field_spec) >= 1

    return PropertyDescriptor(name=f"zeta[k={k},theta={theta:g}]", arity=p, scale=r,
                              diam_factor=2.0 * theta, indicator=indicator)


def upsilon(r: float, p: int, theta: float, k: int,
            field_spec: FieldSpec = GF2) -> SubsetPropertyDescriptor:
    """Isolated persistent cycle: sep at scale theta*r times zeta."""
    return sep(theta * r) * zeta(r, p, theta, k, field_spec)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def _iter_cliques(adjacency_above: Sequence[set[int]], size: int) -> Iterator[tuple[int, ...]]:
    """Cliques as ascending index tuples, grown through common neighborhoods."""
    n = len(adjacency_above)
    if size == 1:
        for i in range(n):
            yield (i,)
        return

    def grow(prefix: tuple[int, ...], common: set[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == size:
            yield prefix
            return
        for v in sorted(common):
            yield from grow(prefix + (v,), common & adjacency_above[v])

    for i in range(n):
        yield from grow((i,), set(adjacency_above[i]))


def count_property(g: PropertyDescriptor, cloud: PointCloud) -> int:
    """Number of p-subsets satisfying g; locality-pruned, exact."""
    if g.arity > len(cloud):
        return 0
    graph = geometric_graph(cloud, g.locality_radius())
    above = [set(nbrs) for nbrs in graph.adjacency_above]
    pts = cloud.points
    return sum(g(pts[list(idx)]) for idx in _iter_cliques(above, g.arity))


def subset_count(h: SubsetPropertyDescriptor, cloud: PointCloud) -> int:
    """Number of p-subsets satisfying the base property within its context.

    An isolated subset is a union of components of the context's graph, and
    a qualifying one is also a clique of the geometric graph at the base's
    locality radius. So the count keeps the components that can take part in
    such a union (p points, or fewer and an edge at the locality radius to a
    component that fits beside them), grows unions of them in ascending label
    order, drops a branch as soon as a component is not adjacent there to
    every point already chosen, and evaluates the base on each union of
    exactly p points, indices ascending. These are the isolated p-cliques,
    the same sets a clique count would keep.
    """
    base, p = h.base, h.arity
    if h.context.trivial:
        return count_property(base, cloud)
    if p > len(cloud):
        return 0
    labels = h.context.labels(cloud)
    sizes = np.bincount(labels)
    pairs = _tree_pairs(cloud, base.locality_radius())
    a, b = labels[pairs[:, 0]], labels[pairs[:, 1]]
    # A component can join a union of p points when it has p points itself, or
    # fewer and an edge to another component that fits beside it.
    joins = (a != b) & (sizes[a] + sizes[b] <= p)
    usable = sizes == p
    usable[a[joins]] = True
    usable[b[joins]] = True
    points = np.flatnonzero(usable[labels])
    pieces: dict[int, list[int]] = {}
    for i, label in zip(points.tolist(), labels[points].tolist()):
        pieces.setdefault(label, []).append(i)
    adjacent: dict[int, set[int]] = {i: set() for piece in pieces.values() for i in piece}
    for i, j in pairs[usable[a] & usable[b]].tolist():
        adjacent[i].add(j)
        adjacent[j].add(i)
    # A component that is no clique at the locality radius is dropped; `reach`
    # holds the kept points adjacent to all of a component.
    pieces = [piece for _, piece in sorted(pieces.items())
              if all(len(adjacent[i].intersection(piece)) == len(piece) - 1 for i in piece)]
    piece_of = {i: c for c, piece in enumerate(pieces) for i in piece}
    kept = set(piece_of)
    reach = [set.intersection(*(adjacent[i] for i in piece)) & kept for piece in pieces]
    pts = cloud.points
    total = 0

    def grow(last: int, chosen: list[int], allowed: set[int]) -> None:
        nonlocal total
        for c in sorted({piece_of[i] for i in allowed if piece_of[i] > last}):
            piece = pieces[c]
            if len(chosen) + len(piece) > p or not allowed.issuperset(piece):
                continue
            union = chosen + piece
            if len(union) == p:
                total += base(pts[sorted(union)])
            else:
                grow(c, union, allowed & reach[c])

    grow(-1, [], kept)
    return total


def component_count(gamma: SmallGraph, cloud: PointCloud, r: float) -> int:
    """Connected components of the geometric graph at scale r isomorphic to gamma.

    Counted as isolated subsets (no outside point within 2r) whose own
    graph matches the template.
    """
    if gamma.n < 2:
        raise ValueError("component templates need at least two vertices")
    if not gamma.is_connected():
        raise ValueError("component templates must be connected")
    return subset_count(sep(r) * iso_graph(gamma, r, gamma.n), cloud)


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
    uniformly from the locality ball of radius C*p about the origin.
    """
    if g.scale != 1.0:
        raise ValueError(f"estimate_mu expects a descriptor at scale 1, got {g.scale}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    p = g.arity
    d = f.dim
    radius = g.diam_factor * p
    weight = ball_volume(d, radius) ** (p - 1) / math.factorial(p)
    values = np.empty(samples, dtype=np.float64)
    anchors = sample_binomial(samples, f, rng).points
    origin = np.zeros((1, d))
    for i in range(samples):
        density_factor = f(anchors[i]) ** (p - 1)
        if density_factor == 0.0:
            values[i] = 0.0
            continue
        if p == 1:
            config = origin
        else:
            config = np.vstack([origin, sample_in_ball(p - 1, d, radius, rng)])
        values[i] = weight * density_factor * g(config)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MuEstimate(mean, se)


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
    Monte Carlo and compared at three standard errors.
    """
    if trials < 2:
        raise ValueError(f"need at least two trials, got {trials}")
    p = h.arity
    lhs_vals = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        lhs_vals[t] = subset_count(h, sample_poisson(n, f, rng))
    lhs = float(lhs_vals.mean())
    lhs_se = float(lhs_vals.std(ddof=1) / math.sqrt(trials))

    rhs_trials = trials if rhs_trials is None else rhs_trials
    factor = n ** p / math.factorial(p)
    rhs_vals = np.empty(rhs_trials, dtype=np.float64)
    for t in range(rhs_trials):
        anchor = sample_binomial(p, f, rng)
        if h.context.trivial:
            rhs_vals[t] = h.base(anchor.points)
        else:
            ambient = sample_poisson(n, f, rng)
            union = PointCloud(f.dim, np.vstack([anchor.points, ambient.points]))
            rhs_vals[t] = h.evaluate(union, tuple(range(p)))
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
        counts = np.empty(trials, dtype=np.float64)
        for t in range(trials):
            cloud = sample_poisson(n, f, rng)
            if isinstance(descriptor, SubsetPropertyDescriptor):
                counts[t] = subset_count(descriptor, cloud)
            else:
                counts[t] = count_property(descriptor, cloud)
        p = descriptor.arity
        denom = float(n) * (r_n ** d * float(n)) ** (p - 1)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(trials))
        rows.append(DiagnosticRow(n=float(n), r=r_n, count_mean=mean, count_se=se,
                                  ratio=mean / denom, ratio_se=se / denom))
    return rows


def diagnostic_rows_to_csv(rows: Sequence[DiagnosticRow]) -> str:
    lines = ["n,r,count_mean,count_se,ratio,ratio_se"]
    for row in rows:
        lines.append(f"{row.n:g},{row.r!r},{row.count_mean!r},{row.count_se!r},"
                     f"{row.ratio!r},{row.ratio_se!r}")
    return "\n".join(lines) + "\n"
