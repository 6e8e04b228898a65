"""Property descriptors, subset counting, and the scaling-limit estimators."""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest

from cechlab import geometry
from cechlab.errors import ConfigurationError
from cechlab.geometry import PointCloud, _close_pairs, _labels, ball_volume, geometric_graph
from cechlab.persistence import GF2, FieldSpec, persistent_betti, persistent_bettis
from cechlab.properties import (DiagnosticRow, PropertyDescriptor, SmallGraph, _gaps,
                                _three_sigma_overlap, _unions,
                                comp, component_count, conn,
                                convergence_diagnostic, count_property, estimate_mu,
                                iso_graph, palm_check, sep, spread,
                                subset_count, subset_counts, trivial_context, upsilon,
                                zeta)
from cechlab.sampling import Density, sample_binomial, sample_in_ball, sample_poisson, stream
from mixed_batches import S, cubic_lattice, mixed_batch
from scalar_cech import adjacency_above


def _square(side: float = 1.0) -> np.ndarray:
    return np.array([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)])


def _chain(n: int, gap: float = 1.0) -> np.ndarray:
    return np.column_stack([np.arange(n) * gap, np.zeros(n)])


# ---------------------------------------------------------------------------
# Small graphs and isomorphism
# ---------------------------------------------------------------------------


def test_small_graph_constructors_and_validation():
    assert SmallGraph.complete(4).edges == SmallGraph.from_edges(
        4, [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)]).edges
    assert SmallGraph.path(4).is_connected()
    assert not SmallGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    with pytest.raises(ValueError):
        SmallGraph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        SmallGraph.complete(9)
    with pytest.raises(ValueError):
        SmallGraph.cycle(2)


@lru_cache(maxsize=None)
def _images(gamma: SmallGraph) -> frozenset:
    """Every edge set onto which some vertex permutation maps gamma's edges."""
    pair = [[(min(a, b), max(a, b)) for b in range(gamma.n)] for a in range(gamma.n)]
    return frozenset(frozenset(pair[perm[i]][perm[j]] for i, j in gamma.edges)
                     for perm in permutations(range(gamma.n)))


def _brute_isomorphic(gamma: SmallGraph, edges) -> bool:
    """Brute force: gamma is isomorphic to an edge set on its vertices when some
    permutation maps gamma's edges onto it."""
    return frozenset(edges) in _images(gamma)


def _realized(n: int, patterns: list) -> np.ndarray:
    """Configurations (m, n, n) whose geometric graph at scale sqrt(2n - 1) is each pattern.

    The Gram matrix n*I + A of a pattern's adjacency A is positive definite
    (A's eigenvalues are at least -(n - 1)); its Cholesky rows are points
    at squared distance 2n - 2 on the pattern's pairs and 2n off them.
    """
    gram = np.tile(np.eye(n) * n, (len(patterns), 1, 1))
    for g, edges in zip(gram, patterns):
        for i, j in edges:
            g[i, j] = g[j, i] = 1.0
    stack = np.linalg.cholesky(gram)
    gaps = ((stack[:, :, None] - stack[:, None]) ** 2).sum(axis=3)
    assert np.array_equal(gaps < 2 * n - 1, (gram == 1.0) | np.eye(n, dtype=bool))
    return stack


def _orbit_agrees_with_brute_force(gamma: SmallGraph, patterns: list,
                                   stack: np.ndarray | None = None) -> None:
    """iso_graph on configurations realizing the patterns (`stack`, when given) gives
    the brute-force answers."""
    n = gamma.n
    stack = _realized(n, patterns) if stack is None else stack
    held = iso_graph(gamma, math.sqrt(2 * n - 1), n).holds(stack)
    assert held.tolist() == [_brute_isomorphic(gamma, edges) for edges in patterns]


def test_isomorphism_distinguishes_same_degree_sequence():
    two_triangles = frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
    hexagon = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)})
    for gamma, edges, expected in ((SmallGraph.cycle(6), hexagon, True),
                                   (SmallGraph.cycle(6), two_triangles, False),
                                   (SmallGraph.path(4), SmallGraph.cycle(4).edges, False)):
        assert _brute_isomorphic(gamma, edges) is expected
        _orbit_agrees_with_brute_force(gamma, [edges])


def test_orbit_lookup_matches_brute_force_on_every_small_template():
    # Every connected template on 1..5 vertices against every pattern of its
    # C(n, 2) pairs (for n = 1, the one empty pattern).
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        patterns = [frozenset(pair for b, pair in enumerate(pairs) if code >> b & 1)
                    for code in range(1 << len(pairs))]
        templates = [gamma for gamma in (SmallGraph(n, edges) for edges in patterns)
                     if gamma.is_connected()]
        assert len(templates) == (1, 1, 4, 38, 728)[n - 1]  # connected labelled graphs
        stack = _realized(n, patterns)
        for gamma in templates:
            _orbit_agrees_with_brute_force(gamma, patterns, stack)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_orbit_lookup_matches_brute_force_up_to_the_vertex_cap(n):
    rng = np.random.default_rng(200 + n)
    pairs = list(combinations(range(n), 2))
    templates = [SmallGraph.cycle(n), SmallGraph.path(n), SmallGraph.complete(n)]
    while len(templates) < 6:  # random connected templates: a random tree plus extra pairs
        tree = [(int(rng.integers(i)), i) for i in range(1, n)]
        extra = [pair for pair in pairs if rng.random() < 0.3]
        templates.append(SmallGraph.from_edges(n, tree + extra))
    for gamma in templates:
        patterns = [frozenset(pair for pair in pairs if rng.random() < density)
                    for density in rng.random(150)]
        patterns += [frozenset(pairs[b] for b in rng.choice(len(pairs), len(gamma.edges),
                                                            replace=False))
                     for _ in range(100)]  # as many pairs as gamma
        for perm in (rng.permutation(n) for _ in range(50)):
            patterns.append(frozenset((min(perm[i], perm[j]), max(perm[i], perm[j]))
                                      for i, j in gamma.edges))
        assert any(_brute_isomorphic(gamma, edges) for edges in patterns)
        _orbit_agrees_with_brute_force(gamma, patterns)


def test_iso_graph_on_embedded_configurations():
    square = _square()
    assert iso_graph(SmallGraph.cycle(4), 1.0, 4)(square) == 1
    assert iso_graph(SmallGraph.path(4), 1.0, 4)(square) == 0
    assert iso_graph(SmallGraph.complete(4), 1.0, 4)(square) == 0
    assert iso_graph(SmallGraph.complete(4), 1.5, 4)(square) == 1
    chain = _chain(4)
    assert iso_graph(SmallGraph.path(4), 1.0, 4)(chain) == 1
    assert iso_graph(SmallGraph.cycle(4), 1.0, 4)(chain) == 0


def test_iso_graph_is_permutation_invariant():
    rng = np.random.default_rng(3)
    g = iso_graph(SmallGraph.cycle(4), 1.0, 4)
    square = _square()
    for _ in range(10):
        assert g(square[rng.permutation(4)]) == 1


def test_iso_graph_edge_boundary_is_closed():
    pair = np.array([(0.0, 0.0), (1.0, 0.0)])
    k2 = SmallGraph.complete(2)
    assert iso_graph(k2, 1.0, 2)(pair) == 1
    assert iso_graph(k2, 1.0 - 1e-12, 2)(pair) == 0


def test_iso_graph_validation():
    with pytest.raises(ValueError):
        iso_graph(SmallGraph.complete(3), 1.0, 4)
    with pytest.raises(ValueError):
        iso_graph(SmallGraph.from_edges(4, [(0, 1), (2, 3)]), 1.0, 4)


# ---------------------------------------------------------------------------
# Built-in descriptors: boundaries and examples
# ---------------------------------------------------------------------------


def test_conn_gap_boundary_is_closed():
    pair = np.array([(0.0, 0.0), (1.0, 0.0)])
    assert conn(0.5, 2)(pair) == 1
    assert conn(0.5 - 1e-12, 2)(pair) == 0
    assert conn(0.2, 3)(_chain(3, 0.4)) == 1
    assert conn(0.19, 3)(_chain(3, 0.4)) == 0


def test_spread_requires_strict_gaps_within_diameter_cap():
    p = 3
    pts = _chain(3, 0.5)
    assert spread(0.5, p)(pts) == 0
    assert spread(0.5 - 1e-12, p)(pts) == 1
    wide = _chain(3, 2.0)
    assert spread(1.0, p)(wide) == 0


def _isolated_by_labels(labels: np.ndarray, chosen: tuple) -> bool:
    """Isolation read off component labels: the members' components hold only them."""
    return int(np.isin(labels, labels[list(chosen)]).sum()) == len(chosen)


def test_sep_isolation_is_strict_beyond_two_r():
    r = 0.25
    for gap, isolated in ((2.0 * r, False), (2.0 * r + 1e-9, True)):
        cloud = PointCloud.from_points([(0.0, 0.0), (0.1, 0.0), (0.1 + gap, 0.0)])
        labels = sep(r).labels(cloud.points, [3])
        assert _isolated_by_labels(labels, (0, 1)) is isolated
    assert _isolated_by_labels(sep(r).labels(np.zeros((0, 2)), [0]), ()) is True


def _within_2r(p: list, q: list, r: float) -> bool:
    """Closed squared-distance rule, written without cechlab code."""
    reach = 2.0 * r
    return sum((a - b) * (a - b) for a, b in zip(p, q)) <= reach * reach


def _isolated_by_brute_force(pts: list, chosen: tuple, r: float | None) -> bool:
    """No outside point within 2r of any member; with no r (the trivial context), True."""
    inside = set(chosen)
    return r is None or not any(_within_2r(pts[i], pts[j], r)
                                for i in chosen for j in range(len(pts)) if j not in inside)


def _closure(pts: list, start: int, r: float) -> set:
    """Points reachable from start through gaps of at most 2r."""
    seen, stack = {start}, [start]
    while stack:
        i = stack.pop()
        for j in range(len(pts)):
            if j not in seen and _within_2r(pts[i], pts[j], r):
                seen.add(j)
                stack.append(j)
    return seen


def _sep_cases(pts: list, r: float, rng: np.random.Generator) -> list:
    """Isolated pieces, unions of them, a piece short of one point, random subsets."""
    n = len(pts)
    cases = []
    for _ in range(6):
        piece = _closure(pts, int(rng.integers(n)), r)
        other = _closure(pts, int(rng.integers(n)), r)
        cases += [piece, piece | other, piece - {min(piece)}, piece | {int(rng.integers(n))}]
    for size in (1, 2, 3, 4):
        cases += [set(rng.choice(n, size=min(size, n), replace=False).tolist())
                  for _ in range(4)]
    return [tuple(sorted(c)) for c in cases if c]


def test_sep_matches_brute_force_isolation():
    rng = np.random.default_rng(23)
    clouds = []
    # Random clouds of 5 to 120 points, in two and three dimensions.
    for n in (5, 12, 30, 48, 49, 80, 120):
        d = 2 + n % 2
        pts = rng.random((n, d))
        scale = n ** (-1.0 / d)
        clouds.append((pts, (0.25 * scale, 0.5 * scale, scale)))
    # Exact-tie dyadic lattices with holes, at r equal to half a lattice
    # distance: an outside point at exactly 2r must break isolation.
    square = np.array([(i, j) for i in range(12) for j in range(12)]) * 0.125
    cube = np.array([(i, j, k) for i in range(5) for j in range(5) for k in range(5)]) * 0.25
    for lattice in (square[:40], square, cube):
        kept = lattice[rng.random(len(lattice)) < 0.55]
        spacing = float(lattice[1, -1] - lattice[0, -1])
        clouds.append((kept, tuple(g / 2.0 for g in (spacing, math.sqrt(2.0) * spacing))))
    # Duplicated points at r = 0: a copy left outside breaks isolation.
    for n in (10, 60):
        pts = rng.random((n, 2))
        clouds.append((np.vstack([pts, pts[: n // 2]]), (0.0,)))
    for pts, radii in clouds:
        cloud = PointCloud(pts.shape[1], pts)
        plain = pts.tolist()
        outcomes = set()
        for r in radii:
            labels = sep(r).labels(cloud.points, [len(cloud)])
            for chosen in _sep_cases(plain, r, rng):
                expected = _isolated_by_brute_force(plain, chosen, r)
                assert _isolated_by_labels(labels, chosen) is expected, (len(plain), r, chosen)
                outcomes.add(expected)
        assert outcomes == {True, False}


def test_closed_pair_tests_agree_with_geometric_graph_in_the_last_bit():
    # Python's dx**2 goes through libm pow, which can differ from dx*dx in
    # the last bit (with glibc it does for this gap). Every pair test uses
    # the geometric graph's x*x rule, so the pair is an edge at r = dx.
    dx = 0.8332023486738223
    pair = np.array([(0.0, 0.0), (dx, 0.0)])
    assert geometric_graph(PointCloud(2, pair), dx).edges == ((0, 1),)
    assert conn(dx / 2.0, 2)(pair) == 1
    assert iso_graph(SmallGraph.complete(2), dx, 2)(pair) == 1
    assert spread(dx, 2)(pair) == 0


def test_comp_counts_isolated_connected_pieces():
    cloud = PointCloud.from_points([
        (0.0, 0.0), (0.3, 0.0), (0.6, 0.0),
        (5.0, 0.0), (5.3, 0.0),
        (9.0, 0.0),
    ])
    assert subset_count(comp(0.2, 3), cloud) == 1
    assert subset_count(comp(0.2, 2), cloud) == 1
    assert subset_count(comp(0.2, 1), cloud) == 1
    assert subset_count(comp(0.05, 2), cloud) == 0


def test_component_count_matches_template():
    cloud = PointCloud.from_points([
        (0.0, 0.0), (0.19, 0.0), (0.1, 0.16),
        (4.0, 0.0), (4.19, 0.0),
        (8.0, 0.0), (8.19, 0.0), (8.38, 0.0),
    ])
    assert component_count(SmallGraph.complete(3), cloud, 0.2) == 1
    assert component_count(SmallGraph.complete(2), cloud, 0.2) == 1
    assert component_count(SmallGraph.path(3), cloud, 0.2) == 1
    assert component_count(SmallGraph.cycle(3), cloud, 0.2) == 1
    with pytest.raises(ValueError):
        component_count(SmallGraph.complete(1), cloud, 0.2)
    with pytest.raises(ValueError):
        component_count(SmallGraph.from_edges(4, [(0, 1), (2, 3)]), cloud, 0.2)


def _component_census(gamma: SmallGraph, cloud: PointCloud, r: float) -> int:
    """Components of `geometric_graph(cloud, r)` isomorphic to gamma, by labels and permutations."""
    edges = np.array(geometric_graph(cloud, r).edges, dtype=np.intp).reshape(-1, 2)
    labels = _labels(len(cloud), edges)
    count = 0
    for label in range(int(labels.max()) + 1 if len(cloud) else 0):
        members = np.flatnonzero(labels == label)
        if len(members) != gamma.n:
            continue
        local = {int(v): i for i, v in enumerate(members)}
        inner = frozenset((local[i], local[j]) for i, j in edges.tolist() if i in local)
        count += inner in _images(gamma)
    return count


def test_component_count_is_a_census_of_the_graph_at_r():
    # The graph at r has edges of length <= r, so an outside point at distance
    # exactly r joins a component and one just beyond it does not, while an
    # outside point between r and 2r leaves the component as it is.
    pair, k2, p3 = [(0.0, 0.0), (0.5, 0.0)], SmallGraph.complete(2), SmallGraph.path(3)
    for third, counts in [((1.0, 0.0), (0, 1)), ((1.0 + 2.0 ** -40, 0.0), (1, 0)),
                          ((1.25, 0.0), (1, 0))]:
        cloud = PointCloud.from_points(pair + [third])
        assert (component_count(k2, cloud, 0.5), component_count(p3, cloud, 0.5)) == counts
        assert counts == (_component_census(k2, cloud, 0.5), _component_census(p3, cloud, 0.5))
    f = Density.unit_cube(2)
    templates = [SmallGraph.complete(2), SmallGraph.complete(3), SmallGraph.path(3),
                 SmallGraph.path(4), SmallGraph.cycle(4)]
    seen = 0
    for t in range(40):
        cloud = sample_poisson(60.0, f, stream(3, t))
        for gamma in templates:
            expected = _component_census(gamma, cloud, 0.08)
            assert component_count(gamma, cloud, 0.08) == expected, (t, gamma)
            seen += expected
    assert seen > 40


def test_zeta_matches_known_cycle_lifetimes():
    triangle = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    assert zeta(0.5, 3, 1.1, 1)(triangle) == 1
    assert zeta(0.5, 3, 1.2, 1)(triangle) == 0
    square = _square()
    assert zeta(0.5, 4, 1.4, 1)(square) == 1
    assert zeta(0.5, 4, 1.42, 1)(square) == 0
    assert zeta(0.4, 4, 1.1, 1)(square) == 0


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(0.5, 3, 0.9, 1)
    with pytest.raises(ValueError):
        zeta(0.5, 3, 1.1, 0)


def test_upsilon_toggles_with_an_intruder():
    r, theta = 0.5, 1.2
    square = _square()
    lonely = PointCloud(2, np.vstack([square, [(30.0, 30.0)]]))
    crowded = PointCloud(2, np.vstack([square, [(0.5, 0.5 + 2.0 * theta * r - 0.05)]]))
    h = upsilon(r, 4, theta, 1)
    assert subset_count(h, lonely) == 1
    assert subset_count(h, crowded) == 0


# ---------------------------------------------------------------------------
# The locality contract: an accepted configuration lies within the radius
# ---------------------------------------------------------------------------

# An acute triangle with a pair at exactly 2r for r = 0.5: its cycle is born
# at r (the pair's edge) and dies at its circumradius 0.56, so beta = 1 at
# theta = 1. Every coordinate is dyadic, so its squared gaps are exact.
_TIE = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8125)])

# A regular tetrahedron of side 2*sqrt(2); its 2-cycle lives from radius
# side/sqrt(3) to side*sqrt(3/8).
_TETRAHEDRON = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)])


def _tie_lattice(rows: int, cols: int) -> np.ndarray:
    """Translates of `_TIE`: rows 0.8125 apart, each shifted by 0.5 from the last,
    and points 1 apart along a row, all at dyadic coordinates."""
    return np.array([(i + 0.5 * (j % 2), 0.8125 * j)
                     for j in range(rows) for i in range(cols)])


def _zeta_truth(r: float, theta: float, k: int, field: FieldSpec):
    """Whether each configuration of a stack, taken as a cloud, has a persistent
    k-cycle: the rank pass on the whole configuration, with no locality clamp."""
    def truth(stack: np.ndarray) -> np.ndarray:
        clouds = [PointCloud(stack.shape[2], config) for config in stack]
        return persistent_bettis(clouds, r, theta, k, field) >= 1
    return truth


def _locality_cases(r: float) -> list:
    """(d, property, its truth on a stack) for every built-in property: zeta at
    p = k+1, k+2 and k+3 for k = 1 in d = 2 and k = 2 in d = 3, over GF(2) and GF(3)."""
    cases = [(2, g, g.holds) for g in (iso_graph(SmallGraph.path(3), r, 3),
                                       iso_graph(SmallGraph.complete(3), r, 3),
                                       conn(r, 3), conn(r, 4), spread(r, 3))]
    for d, k, thetas in ((2, 1, (1.0, 1.1, 1.4)), (3, 2, (1.0, 1.04))):
        for p in (k + 1, k + 2, k + 3):
            for theta in thetas:
                for field in (GF2, FieldSpec(3)):
                    cases.append((d, zeta(r, p, theta, k, field),
                                  _zeta_truth(r, theta, k, field)))
    return cases


def _locality_stacks(d: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Random configurations at spreads from well inside 2r to beyond 2*theta*r*p
    (r = 0.5), then dyadic ones with pairs at exactly 2r: picks of a `_TIE`
    lattice in d = 2, of the lattice of step 0.5 and that lattice in d = 3; and
    at four points the square of side 2r (its cycle lives from r to r*sqrt(2))
    or the regular tetrahedron of side 0.86 (from 0.497 to 0.527)."""
    spread_out = rng.random((2000, p, d)) * rng.uniform(0.5, 3.0, (2000, 1, 1))
    if d == 2:
        grid = _tie_lattice(3, 3)
    else:
        flat = np.column_stack((_tie_lattice(2, 3), np.zeros(6)))
        grid = np.vstack([flat, flat + (0.0, 0.0, 0.75), cubic_lattice(3, 27) * 4.0])
    picks = np.array([rng.choice(len(grid), p, replace=False) for _ in range(1000)])
    extra = {(2, 4): [_square()[None]], (3, 4): [_TETRAHEDRON[None] * 0.304]}.get((d, p), [])
    return np.concatenate([spread_out, grid[picks]] + extra)


def test_accepted_configurations_lie_within_the_locality_radius():
    # The promise the counts rest on: indicator(Y) = 1 implies every pair of Y
    # within `locality_radius()`. zeta's indicator also equals the rank pass on
    # the whole configuration, so its clamp at that radius rejects nothing
    # that holds; at p <= k+2 the radius is 2r with a relative slack of 1e-9.
    rng = np.random.default_rng(241)
    r = 0.5
    held_at, ties = {}, {}  # accepted configurations; those with a pair at exactly 2r
    for d, g, truth in _locality_cases(r):
        stack = _locality_stacks(d, g.arity, rng)
        held = g.holds(stack)
        assert held.tolist() == truth(stack).tolist(), g.name
        radius = g.locality_radius()
        gaps = _gaps(stack)
        assert (gaps[held] <= radius * radius).all(), (g.name, g.arity)
        held_at[d, g.name, g.arity] = int(held.sum())
        ties[d, g.name, g.arity] = int((held & (gaps == 4.0 * r * r).any(axis=1)).sum())
        if g.name.startswith("zeta"):
            assert (2.0 * r < radius < 2.0 * r * (1.0 + 1e-8)) == (g.arity <= d + 1), g.name
    # No k-cycle on k+1 points, and no triangle lives from r to 1.4 r.
    assert not any(count for (d, name, p), count in held_at.items()
                   if name.startswith("zeta") and p == d)
    assert not held_at[2, "zeta[k=1,theta=1.4]", 3]
    for d, name, p in ((2, "zeta[k=1,theta=1]", 3), (2, "zeta[k=1,theta=1.1]", 3),
                       (2, "zeta[k=1,theta=1]", 4), (2, "zeta[k=1,theta=1.4]", 4),
                       (3, "zeta[k=2,theta=1]", 4), (3, "zeta[k=2,theta=1.04]", 4),
                       (3, "zeta[k=2,theta=1]", 5), (2, "conn", 4), (2, "spread", 3)):
        assert held_at[d, name, p] > 0, (d, name, p)
    assert ties[2, "zeta[k=1,theta=1]", 3] and ties[2, "zeta[k=1,theta=1.4]", 4], ties
    tie = zeta(r, 3, 1.0, 1)
    assert tie(_TIE) == 1 and persistent_betti(PointCloud(2, _TIE), r, 1.0, 1) == 1
    assert _gaps(_TIE[None]).max() == 1.0 <= tie.locality_radius() ** 2


def test_descriptor_validation_and_call_shape():
    with pytest.raises(ValueError):
        PropertyDescriptor("bad", 0, 1.0, 1.0, lambda pts: True)
    with pytest.raises(ValueError):
        PropertyDescriptor("bad", 2, 0.0, 1.0, lambda pts: True)
    with pytest.raises(ConfigurationError):
        PropertyDescriptor("bad", 2, 1.0, math.inf, lambda pts: True)
    g = conn(0.5, 2)
    assert g(np.zeros((3, 2))) == 0
    assert g.locality_radius() == pytest.approx(2.0)
    ctx = trivial_context()
    assert ctx.trivial and ctx.labels(np.zeros((3, 2)), [3]).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Counting: pruned equals exhaustive
# ---------------------------------------------------------------------------


def _brute_count(g: PropertyDescriptor, cloud: PointCloud) -> int:
    return sum(g(cloud.points[list(idx)])
               for idx in combinations(range(len(cloud)), g.arity))


def _brute_subset_count(h, cloud: PointCloud) -> int:
    pts = cloud.points.tolist()
    return sum(h.base(cloud.points[list(idx)])
               for idx in combinations(range(len(cloud)), h.arity)
               if _isolated_by_brute_force(pts, idx, h.context.scale))


def test_counts_match_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    plain = [
        iso_graph(SmallGraph.complete(2), 0.25, 2),
        iso_graph(SmallGraph.complete(3), 0.3, 3),
        iso_graph(SmallGraph.path(3), 0.25, 3),
        conn(0.15, 2),
        conn(0.15, 3),
        spread(0.2, 3),
        zeta(0.25, 3, 1.1, 1),
    ]
    subset = [
        comp(0.15, 2),
        comp(0.2, 3),
        sep(0.25) * iso_graph(SmallGraph.complete(2), 0.25, 2),
        upsilon(0.25, 3, 1.1, 1),
    ]
    for _ in range(25):
        n = int(rng.integers(4, 13))
        cloud = PointCloud(2, rng.random((n, 2)))
        for g in plain:
            assert count_property(g, cloud) == _brute_count(g, cloud)
        for h in subset:
            assert subset_count(h, cloud) == _brute_subset_count(h, cloud)


def test_subset_counts_of_a_batch_match_exhaustive_enumeration():
    # One base evaluation serves the unions of every cloud of the batch.
    rng = np.random.default_rng(151)
    clouds = [PointCloud.from_points([], dim=2), PointCloud.from_points([(0.5, 0.5)])]
    clouds += [PointCloud(2, rng.random((int(rng.integers(3, 13)), 2))) for _ in range(20)]
    for h in (comp(0.15, 2), comp(0.2, 3), upsilon(0.25, 3, 1.1, 1), upsilon(0.2, 4, 1.2, 1),
              sep(0.25) * iso_graph(SmallGraph.complete(2), 0.25, 2),
              trivial_context() * conn(0.15, 2)):
        counts = subset_counts(h, clouds)
        assert counts.tolist() == [_brute_subset_count(h, cloud) for cloud in clouds], h.name
        assert counts.tolist() == [subset_count(h, cloud) for cloud in clouds]
    assert subset_counts(comp(0.15, 2), []).tolist() == []


def test_stacked_indicators_equal_one_configuration_at_a_time():
    rng = np.random.default_rng(157)
    for g in (iso_graph(SmallGraph.path(3), 0.25, 3), conn(0.15, 3), spread(0.2, 3),
              zeta(0.25, 3, 1.1, 1), zeta(0.2, 4, 1.2, 1)):
        stack = rng.random((200, g.arity, 2)) * 0.6
        held = g.holds(stack)
        assert held.dtype == bool and held.shape == (200,)
        assert held.tolist() == [bool(g(config)) for config in stack]
        assert g.holds(stack[:0]).tolist() == []
    assert _accept_all(1.0, 2, 1.0).holds(np.zeros((3, 2, 2))).tolist() == [True] * 3


def _scalar_edges(pts: list, cutoff: float) -> list[tuple[int, int]]:
    """Pairs i < j at distance <= cutoff, by the closed scalar rule."""
    return [(i, j) for i, j in combinations(range(len(pts)), 2)
            if _within_2r(pts[i], pts[j], cutoff / 2.0)]


def _scalar_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for a, b in edges:
            for j in ((b,) if a == i else (a,) if b == i else ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return len(seen) == n


def test_stacked_pair_tests_match_the_per_configuration_loop():
    # iso_graph, conn and spread test every pair of the stack in one pass; each
    # configuration's answer is the per-configuration loop's, also for pairs at
    # exactly the cutoff (dyadic lattice points, whose distances square exactly).
    rng = np.random.default_rng(211)
    grid = cubic_lattice(2, 16)
    for p in (2, 3, 4):
        picks = np.array([rng.choice(len(grid), p, replace=False) for _ in range(300)])
        stack = np.concatenate([grid[picks], rng.random((100, p, 2)) * 0.4])
        configs = stack.tolist()
        templates = [SmallGraph.path(p), SmallGraph.complete(p)]
        templates += [SmallGraph.cycle(p)] if p >= 3 else []
        assert (((stack[:, :, None] - stack[:, None]) ** 2).sum(axis=3) == S * S).any()  # ties
        for cutoff in (S, math.sqrt(2.0) * S, 2.0 * S):
            edges = [_scalar_edges(pts, cutoff) for pts in configs]
            for gamma in templates:
                assert iso_graph(gamma, cutoff, p).holds(stack).tolist() == \
                    [_brute_isomorphic(gamma, e) for e in edges]
            assert conn(cutoff / 2.0, p).holds(stack).tolist() == \
                [_scalar_connected(p, e) for e in edges]
            wide = [_scalar_edges(pts, cutoff * p) for pts in configs]
            assert spread(cutoff, p).holds(stack).tolist() == \
                [not e and len(w) == p * (p - 1) // 2 for e, w in zip(edges, wide)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_counts_and_ranks_equal_batches_of_one(d):
    # Clouds batched through the grouped neighbour layer (empty and one-point
    # clouds, duplicates, exact-tie lattices around the group size) get the
    # sep labels, isolated counts and persistent ranks of their batches of one.
    clouds = [PointCloud(d, pts) for pts in mixed_batch(d, np.random.default_rng(700 + d))]
    if d >= 2:  # isolated equilateral triangles of side 0.12, a 1-cycle from 0.06 to 0.069
        triangle = np.array([(0.0, 0.0), (0.12, 0.0), (0.06, 0.06 * math.sqrt(3.0))])
        clouds[3:3] = [PointCloud(d, np.pad(triangle, ((0, 0), (0, d - 2))))] * 2
    sizes = [len(cloud) for cloud in clouds]
    stack = np.concatenate([cloud.points for cloud in clouds])
    for r in (S / 2.0, 0.06, 0.07):
        labels = sep(r).labels(stack, sizes)
        for cloud, start in zip(clouds, (np.cumsum(sizes) - sizes).tolist()):
            if len(cloud):
                assert np.array_equal(labels[start:start + len(cloud)] - labels[start],
                                      sep(r).labels(cloud.points, [len(cloud)]))
        for h in (comp(r, 2), comp(r, 3), upsilon(r, 3, 1.1, 1)):
            assert subset_counts(h, clouds).tolist() == \
                [subset_count(h, cloud) for cloud in clouds], (r, h.name)
        for theta, k in ((1.0, 0), (1.1, 1), (1.5, 1), (1.2, d - 1)):
            assert persistent_bettis(clouds, r, theta, k).tolist() == \
                [persistent_betti(cloud, r, theta, k) for cloud in clouds], (r, theta, k)


def _accept_all(r: float, p: int, factor: float) -> PropertyDescriptor:
    """Accepts every p-set, so a count of it counts the candidates themselves.

    It breaks its own locality promise, which is what lets these tests see
    whether the count keeps to the cliques at the locality radius.
    """
    return PropertyDescriptor("all", p, r, factor, lambda pts: True)


def _isolated_clique_count(cloud: PointCloud, r_sep: float | None,
                           base: PropertyDescriptor) -> int:
    """p-subsets isolated at r_sep (None: any subset) that are cliques at the
    base's locality radius and satisfy the base, by exhaustive enumeration."""
    pts = cloud.points.tolist()
    half_reach = base.locality_radius() / 2.0
    total = 0
    for idx in combinations(range(len(pts)), base.arity):
        if r_sep is not None and not _isolated_by_brute_force(pts, idx, r_sep):
            continue
        if all(_within_2r(pts[i], pts[j], half_reach) for i, j in combinations(idx, 2)):
            total += base(cloud.points[list(idx)])
    return total


def _component_sizes(cloud: PointCloud, r: float) -> list[int]:
    pts = cloud.points.tolist()
    left, sizes = set(range(len(pts))), []
    while left:
        piece = _closure(pts, min(left), r)
        sizes.append(len(piece))
        left -= piece
    return sizes


def test_isolated_counts_are_the_isolated_locality_cliques():
    rng = np.random.default_rng(19)
    cases = []  # (group, cloud, isolation scale, base)
    # Sparse clouds: nearly every point is its own component at 2r, while
    # one locality radius spans most of the cloud.
    for _ in range(10):
        cloud = PointCloud(2, rng.random((int(rng.integers(8, 15)), 2)))
        for p in (2, 3, 4):
            cases += [("sparse", cloud, 0.02, _accept_all(0.1, p, 2.0)),
                      ("sparse", cloud, 0.02, spread(0.15, p))]
    # Dyadic lattices: neighbours at exactly 2r and pairs at exactly the
    # locality radius, with some points duplicated.
    lattice = np.array([(i, j) for i in range(5) for j in range(5)], dtype=np.float64) / 8.0
    for _ in range(10):
        kept = lattice[rng.random(len(lattice)) < 0.45]
        cloud = PointCloud(2, np.vstack([kept, kept[rng.random(len(kept)) < 0.3]]))
        for p in (2, 3, 4):
            cases += [("lattice", cloud, 1.0 / 16.0, _accept_all(1.0 / 16.0, p, 1.0)),
                      ("lattice", cloud, 1.0 / 16.0, conn(1.0 / 16.0, p))]
        cases.append(("lattice", cloud, 1.0 / 16.0,
                      iso_graph(SmallGraph.path(3), 1.0 / 8.0, 3)))
    # Isolated persistent cycles at the paper's arities, around a planted
    # square (born at 0.1195 <= 0.12, dies at 0.169 > 1.4 * 0.12) or
    # equilateral triangle (born at 0.095, dies at 0.1097 > 0.1). No
    # 3-point cycle lives from r to 1.2 r.
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]) * 0.239
    triangle = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]) * 0.19
    for m, theta, r, planted in ((4, 1.4, 0.12, square), (3, 1.0, 0.1, triangle),
                                 (3, 1.2, 0.1, triangle)):
        for _ in range(12):
            extra = rng.random((int(rng.integers(3, 9)), 2)) * 3.0
            cloud = PointCloud(2, np.vstack([planted + rng.random(2), extra]))
            cases.append((f"upsilon m={m} theta={theta}", cloud, theta * r,
                          zeta(r, m, theta, 1)))
    # Three dimensions.
    for _ in range(10):
        cloud = PointCloud(3, rng.random((int(rng.integers(6, 13)), 3)))
        for p in (2, 3):
            cases += [("d=3", cloud, 0.1, _accept_all(0.15, p, 2.0)),
                      ("d=3", cloud, 0.15, conn(0.15, p))]
        cases.append(("d=3", cloud, 0.25, zeta(0.25, 3, 1.0, 1)))
    # p = 1: isolated points.
    for _ in range(10):
        cloud = PointCloud(2, rng.random((int(rng.integers(2, 12)), 2)))
        cases += [("p=1", cloud, 0.1, _accept_all(0.1, 1, 1.0)),
                  ("p=1", cloud, 0.1, conn(0.1, 1))]
    # p above every component's size: only unions of components qualify.
    cells = np.array([(i, j) for i in range(4) for j in range(4)], dtype=np.float64) * 0.15
    for _ in range(10):
        pairs = cells[rng.choice(len(cells), 5, replace=False)][:, None]
        pts = np.concatenate([pairs, pairs + [0.05, 0.0]], axis=1).reshape(-1, 2)
        cloud = PointCloud(2, pts)
        assert max(_component_sizes(cloud, 0.03)) <= 2
        for p in (3, 4, 5):
            cases.append(("unions", cloud, 0.03, _accept_all(0.1, p, 2.0)))

    positive = {}
    for group, cloud, r_sep, base in cases:
        expected = _isolated_clique_count(cloud, r_sep, base)
        assert subset_count(sep(r_sep) * base, cloud) == expected, (group, base.name)
        positive[group] = positive.get(group, 0) + (expected > 0)
    assert positive.pop("upsilon m=3 theta=1.2") == 0
    assert all(positive.values()), positive
    # The trivial context counts the same cliques as count_property.
    for _, cloud, _, base in cases[::5]:
        expected = _isolated_clique_count(cloud, None, base)
        assert subset_count(trivial_context() * base, cloud) == expected
        assert count_property(base, cloud) == expected


def _clique_loop_count(h, cloud: PointCloud) -> int:
    """`subset_count` as a clique loop: every p-clique of the graph at the
    locality radius, grown through common neighbourhoods, then isolation."""
    if h.arity > len(cloud):
        return 0
    pts = cloud.points.tolist()
    scale = h.context.scale
    near = [{j for j, q in enumerate(pts) if scale is not None and _within_2r(p, q, scale)}
            for p in pts]  # each point's neighbours within 2r, by brute force
    above = adjacency_above(geometric_graph(cloud, h.base.locality_radius()))
    total = 0

    def grow(prefix: tuple, common: set) -> None:
        nonlocal total
        if len(prefix) == h.arity:
            isolated = set().union(*(near[i] for i in prefix)) <= set(prefix)
            total += bool(isolated and h.base(cloud.points[list(prefix)]))
            return
        for v in sorted(common):
            grow(prefix + (v,), common & above[v])

    for i in range(len(cloud)):
        grow((i,), set(above[i]))
    return total


@pytest.mark.parametrize("m, theta, c, n, trials, seed", [
    (3, 1.0, 0.6, 20.0, 300, 5),
    (4, 1.4, 0.65, 15.0, 200, 6),
])
def test_isolated_counts_match_the_clique_loop_on_criterion_6_clouds(m, theta, c, n,
                                                                   trials, seed):
    square = Density.unit_cube(2)
    r = c * n ** -0.6
    h = upsilon(r, m, theta, 1)
    # Isolated 4-cycles at theta = 1.4 are rare (none in criterion 6's 1500
    # clouds), so the candidates themselves are compared too.
    candidates = sep(theta * r) * _accept_all(r, m, 2.0 * theta)
    found = [0, 0]
    for t in range(trials):
        cloud = sample_poisson(n, square, stream(seed, 0, t))
        for i, counted in enumerate((h, candidates)):
            count = subset_count(counted, cloud)
            assert count == _clique_loop_count(counted, cloud), (t, counted.name)
            found[i] += count
    assert found[1] > 0 and (found[0] > 0 or m == 4), found


def _exhaustive_cycle_count(cloud: PointCloud, r_sep: float | None, r: float, p: int,
                            theta: float, k: int, field: FieldSpec) -> int:
    """p-subsets isolated at r_sep (None: any subset) that carry a persistent
    k-cycle: every p-subset, ranked as a cloud of its own, with no locality."""
    pts = cloud.points.tolist()
    chosen = [idx for idx in combinations(range(len(pts)), p)
              if _isolated_by_brute_force(pts, idx, r_sep)]
    if not chosen:
        return 0
    subsets = [PointCloud(cloud.dim, cloud.points[list(idx)]) for idx in chosen]
    return int((persistent_bettis(subsets, r, theta, k, field) >= 1).sum())


def test_cycle_counts_at_k_plus_2_points_match_exhaustive_enumeration():
    # zeta's locality at p = k+2 is 2r: the counts keep every subset that
    # carries a cycle. The clouds: picks of a lattice of translates of `_TIE`
    # (pairs at exactly 2r), with duplicated points; translates set apart at
    # dyadic offsets, some points dropped or doubled, among random points; and
    # in d = 3 a regular tetrahedron (its 2-cycle lives from 0.0621 to 0.0658)
    # among random points. Over GF(2) and GF(3).
    rng = np.random.default_rng(251)
    r = 1.0 / 16.0
    lattice = _tie_lattice(4, 4) / 8.0
    cases = []  # (cloud, k)
    for _ in range(8):
        kept = lattice[rng.random(len(lattice)) < 0.6]
        cases.append((PointCloud(2, np.vstack([kept, kept[rng.random(len(kept)) < 0.2]])), 1))
        apart = (_TIE / 8.0 + rng.integers(0, 6, (4, 1, 2)) / 2.0).reshape(-1, 2)
        apart = apart[rng.random(len(apart)) < 0.9]
        cases.append((PointCloud(2, np.vstack([apart, apart[rng.random(len(apart)) < 0.1],
                                               rng.random((2, 2)) * 3.0])), 1))
        cases.append((PointCloud(3, np.vstack([_TETRAHEDRON * 0.038 + rng.random(3),
                                               rng.random((int(rng.integers(2, 5)), 3))])), 2))
    found = {}  # hits per (d, isolated)
    for cloud, k in cases:
        p = k + 2
        for theta in (1.0, 1.04):
            for field in (GF2, FieldSpec(3)):
                g = zeta(r, p, theta, k, field)
                plain = _exhaustive_cycle_count(cloud, None, r, p, theta, k, field)
                assert count_property(g, cloud) == plain == _isolated_clique_count(cloud, None, g)
                isolated = _exhaustive_cycle_count(cloud, theta * r, r, p, theta, k, field)
                assert subset_count(upsilon(r, p, theta, k, field), cloud) == isolated
                assert isolated == _isolated_clique_count(cloud, theta * r, g)
                found[cloud.dim, False] = found.get((cloud.dim, False), 0) + plain
                found[cloud.dim, True] = found.get((cloud.dim, True), 0) + isolated
    assert len(found) == 4 and all(found.values()), found


def _combination_rows(clouds: list, p: int, r_sep: float | None, radius: float) -> list:
    """Stacked rows of the p-subsets of each cloud, in `itertools.combinations`
    order, that are cliques at `radius` and, with r_sep, isolated at r_sep."""
    rows, start = [], 0
    for cloud in clouds:
        pts = cloud.tolist()
        for idx in combinations(range(len(pts)), p):
            if r_sep is not None and not _isolated_by_brute_force(pts, idx, r_sep):
                continue
            if all(_within_2r(pts[i], pts[j], radius / 2.0) for i, j in combinations(idx, 2)):
                rows.append([start + i for i in idx])
        start += len(pts)
    return rows


def _union_batch(rng: np.random.Generator) -> list:
    """Small clouds for the union enumerator: empty ones, clouds of fewer points
    than most arities, duplicates, a dense cluster (components of more than p
    points), sparse picks of the lattice of step S (exact ties at S and its
    multiples) and random clouds."""
    grid = cubic_lattice(2, 36)
    return ([np.zeros((0, 2)), rng.random((1, 2)), rng.random((2, 2)) * 0.1,
             np.repeat(rng.random((3, 2)) * 0.3, 2, axis=0), rng.random((9, 2)) * 0.06]
            + [grid[rng.choice(36, int(rng.integers(8, 13)), replace=False)] for _ in range(4)]
            + [np.zeros((0, 2))]
            + [rng.random((int(n), 2)) * 0.5 for n in rng.integers(3, 11, 4)])


def test_union_rows_and_order_are_the_combinations():
    # The batched enumerator returns exactly the isolated (or, with the trivial
    # context, all) locality cliques, in each cloud's combinations order, cloud
    # after cloud; ties at 2r and at the locality radius are closed.
    rng = np.random.default_rng(229)
    found = 0
    for _ in range(3):
        clouds = _union_batch(rng)
        sizes = [len(c) for c in clouds]
        points = np.concatenate(clouds)
        cloud_of = np.repeat(np.arange(len(clouds)), sizes)
        for r_sep, radius in ((S / 2.0, 2.0 * S), (S / 2.0, math.sqrt(2.0) * S), (S, 2.0 * S),
                              (S / 2.0, 3.0 * S), (None, S), (None, 2.0 * S), (0.03, 0.2)):
            context = trivial_context() if r_sep is None else sep(r_sep)
            labels = context.labels(points, sizes)
            pairs = _close_pairs(points, sizes, radius)
            for p in range(1, 6):
                rows = _unions(p, labels, pairs, cloud_of)
                assert rows.shape == (len(rows), p) and rows.dtype == np.intp
                expected = _combination_rows(clouds, p, r_sep, radius)
                assert rows.tolist() == expected, (r_sep, radius, p)
                found += len(expected) > 0
    assert found >= 60, found


def test_plain_counts_on_dense_clouds_match_exhaustive_enumeration():
    # Nearly every p-subset is a clique at the locality radius, and the cliques
    # overlap in every way.
    rng = np.random.default_rng(233)
    for _ in range(6):
        cloud = PointCloud(2, rng.random((int(rng.integers(9, 14)), 2)) * 0.3)
        for p in (2, 3, 4, 5):
            for g in (conn(0.06, p), iso_graph(SmallGraph.complete(p), 0.15, p),
                      iso_graph(SmallGraph.path(p), 0.12, p), spread(0.05, p)):
                assert count_property(g, cloud) == _brute_count(g, cloud), (p, g.name)


def test_oversized_union_frontier_fails_fast(monkeypatch):
    # The cap counts one cloud's candidates: a batch of small dense clouds
    # stays under it, a dense cloud at a high arity raises before growing.
    monkeypatch.setattr(geometry, "_MAX_CANDIDATES", 50)
    rng = np.random.default_rng(239)
    g = conn(0.1, 3)
    small = [PointCloud(2, rng.random((5, 2)) * 0.1) for _ in range(20)]
    assert subset_counts(trivial_context() * g, small).tolist() == \
        [_brute_count(g, cloud) for cloud in small] == [10] * 20
    dense = PointCloud(2, rng.random((30, 2)) * 0.1)
    with pytest.raises(ConfigurationError, match="435 candidate unions of 2 components"):
        count_property(g, dense)
    with pytest.raises(ConfigurationError, match="candidate unions"):
        subset_counts(sep(1e-4) * g, small + [dense])


def test_palm_and_diagnostic_batches_are_the_per_trial_loop(monkeypatch):
    # Clouds are drawn in the per-trial order and counted in batches; a small
    # batch bound makes several batches.
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 40)
    f = Density.unit_cube(2)
    for h in (comp(0.08, 2), trivial_context() * conn(0.08, 2),
              sep(0.05) * iso_graph(SmallGraph.complete(2), 0.1, 2)):
        result = palm_check(h, 12.0, f, 30, stream(241), rhs_trials=50)
        rng = stream(241)
        lhs = [subset_count(h, sample_poisson(12.0, f, rng)) for _ in range(30)]
        rhs = []
        for _ in range(50):
            anchor = sample_binomial(2, f, rng)
            if h.context.trivial:
                rhs.append(h.base(anchor.points))
            else:
                ambient = sample_poisson(12.0, f, rng)
                union = np.vstack([anchor.points, ambient.points])
                isolated = _isolated_by_brute_force(union.tolist(), (0, 1), h.context.scale)
                rhs.append(h.base(anchor.points) if isolated else 0)
        assert result.lhs == float(np.array(lhs, dtype=np.float64).mean()), h.name
        assert result.rhs == 12.0 ** 2 / 2 * float(np.array(rhs, dtype=np.float64).mean())
        assert 0 < sum(rhs) < 50
    rows = convergence_diagnostic(lambda r: conn(r, 2), f, 0.4, -0.75, [30.0], 20, stream(251))
    rng = stream(251)
    counts = [count_property(conn(0.4 * 30.0 ** -0.75, 2), sample_poisson(30.0, f, rng))
              for _ in range(20)]
    assert rows[0].count_mean == float(np.array(counts, dtype=np.float64).mean()) > 0


def test_count_on_undersized_cloud_is_zero():
    cloud = PointCloud.from_points([(0.0, 0.0)])
    assert count_property(conn(0.5, 3), cloud) == 0
    assert subset_count(comp(0.5, 2), cloud) == 0


def test_indicator_translation_and_scaling_equivariance():
    rng = np.random.default_rng(13)
    makers = [
        lambda r: iso_graph(SmallGraph.complete(3), r, 3),
        lambda r: conn(r, 3),
        lambda r: spread(r, 3),
        lambda r: zeta(r, 3, 1.15, 1),
    ]
    for _ in range(20):
        pts = rng.random((3, 2))
        r = float(rng.uniform(0.1, 0.6))
        s = float(rng.uniform(0.2, 5.0))
        shift = rng.uniform(-10.0, 10.0, size=2)
        for make in makers:
            assert make(r)(pts) == make(r)(pts + shift)
            assert make(r)(pts) == make(s * r)(s * pts)


def test_isolated_cycles_never_exceed_persistent_betti():
    rng = np.random.default_rng(17)
    theta, k, m = 1.0, 1, 3
    for _ in range(60):
        cloud = PointCloud(2, rng.random((int(rng.integers(3, 10)), 2)))
        for r in (0.1, 0.2, 0.35):
            lhs = subset_count(upsilon(r, m, theta, k), cloud)
            assert lhs <= persistent_betti(cloud, r, theta, k)


# ---------------------------------------------------------------------------
# Scaling limits
# ---------------------------------------------------------------------------


def test_estimate_mu_matches_closed_forms():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    pairs = estimate_mu(iso_graph(SmallGraph.complete(2), 1.0, 2), f, 40_000,
                        stream(101))
    assert abs(pairs.value - math.pi / 2.0) <= 4.0 * pairs.std_error
    connected = estimate_mu(conn(1.0, 2), f, 40_000, stream(103))
    assert abs(connected.value - 2.0 * math.pi) <= 4.0 * connected.std_error


def _estimate_mu_one_at_a_time(g: PropertyDescriptor, f: Density, samples: int,
                               rng: np.random.Generator) -> tuple[float, float]:
    """The per-sample loop `estimate_mu` stacks: same draws, one call per configuration."""
    p, d = g.arity, f.dim
    radius = g.diam_factor * p
    weight = ball_volume(d, radius) ** (p - 1) / math.factorial(p)
    values = np.empty(samples)
    anchors = sample_binomial(samples, f, rng).points
    for i in range(samples):
        density_factor = f(anchors[i]) ** (p - 1)
        if density_factor == 0.0:
            values[i] = 0.0
            continue
        config = np.zeros((p, d))
        if p > 1:
            config[1:] = sample_in_ball(p - 1, d, radius, rng)
        values[i] = weight * density_factor * g(config)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


def test_estimate_mu_is_the_per_sample_loop_bit_for_bit():
    # A density with a hole makes some anchors draw no configuration.
    holed = Density.custom([(0.0, 1.0), (0.0, 1.0)], 2.0,
                           lambda x: 0.0 if x[0] < 0.3 else 1.0 + float(x[1]))
    square = Density.unit_cube(2)
    for g, f, samples, seed, hit in ((iso_graph(SmallGraph.complete(2), 1.0, 2), square,
                                      3000, 163, True),
                                     (conn(1.0, 3), holed, 2000, 167, True),
                                     (zeta(1.0, 3, 1.0, 1), square, 10_000, 173, True),
                                     (zeta(1.0, 4, 1.2, 1), holed, 2000, 179, False),
                                     (conn(1.0, 3), Density.uniform_box([(0.0, 1.3), (0.0, 0.7)]),
                                      2000, 181, True)):
        est = estimate_mu(g, f, samples, stream(seed))
        assert (est.value, est.std_error) == _estimate_mu_one_at_a_time(g, f, samples,
                                                                        stream(seed))
        assert est.value > 0.0 or not hit, g.name


def test_estimate_mu_tight_ball_agrees_with_the_wide_ball():
    # At p = k+2 zeta draws in a ball of radius 2 (its locality 2r at r = 1),
    # not 2*theta*p: the same integral with a smaller standard error.
    square = Density.unit_cube(2)
    for g, theta, seed in ((zeta(1.0, 3, 1.0, 1), 1.0, 257),
                           (zeta(1.0, 3, 1.05, 1, FieldSpec(3)), 1.05, 263)):
        tight = estimate_mu(g, square, 20_000, stream(seed))
        wide = estimate_mu(dataclasses.replace(g, diam_factor=2.0 * theta), square, 80_000,
                           stream(seed, 1))
        assert tight.value > 0.0 and wide.value > 0.0
        assert tight.std_error < wide.std_error
        assert abs(tight.value - wide.value) <= 3.0 * math.hypot(tight.std_error,
                                                                 wide.std_error), (tight, wide)


def test_estimate_mu_degenerate_and_invalid():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    never = PropertyDescriptor("never", 2, 1.0, 1.0, lambda pts: False)
    est = estimate_mu(never, f, 500, stream(107))
    assert est.value == 0.0 and est.std_error == 0.0
    with pytest.raises(ValueError):
        estimate_mu(conn(0.5, 2), f, 100, stream(109))
    with pytest.raises(ValueError):
        estimate_mu(conn(1.0, 2), f, 0, stream(109))


def test_palm_identity_singletons_is_exact_on_the_right():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    ones = PropertyDescriptor("one", 1, 1.0, 1.0, lambda pts: True)
    res = palm_check(trivial_context() * ones, 50.0, f, 2000, stream(113))
    assert res.rhs == 50.0 and res.rhs_se == 0.0
    assert res.agree
    assert abs(res.lhs - 50.0) <= 3.0 * res.lhs_se


def test_palm_identity_pairs():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    h = trivial_context() * conn(0.15, 2)
    res = palm_check(h, 30.0, f, 600, stream(127), rhs_trials=20_000)
    assert res.agree
    assert res.lhs > 10.0

    mismatch = _three_sigma_overlap(res.lhs, res.lhs_se, 2.0 * res.rhs, res.rhs_se)
    assert not mismatch


def test_palm_identity_with_isolation_context():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    h = comp(0.08, 2)
    res = palm_check(h, 25.0, f, 1500, stream(131), rhs_trials=40_000)
    assert res.agree
    assert res.lhs > 0.5


def test_palm_check_validation():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        palm_check(comp(0.1, 2), 10.0, f, 1, stream(1))
    # Each side's standard error needs two trials: one or none is refused before any draw.
    for rhs_trials in (1, 0, -3):
        rng = stream(2)
        with pytest.raises(ValueError, match="right-hand trials"):
            palm_check(comp(0.1, 2), 10.0, f, 20, rng, rhs_trials=rhs_trials)
        assert rng.random() == stream(2).random()
    assert palm_check(comp(0.1, 2), 10.0, f, 20, stream(2), rhs_trials=2).rhs_se >= 0.0


def test_convergence_diagnostic_structure_and_guards():
    f = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
    family = lambda r: iso_graph(SmallGraph.complete(2), r, 2)
    rows = convergence_diagnostic(family, f, 0.4, -0.75, [50.0, 100.0], 30, stream(137))
    assert len(rows) == 2 and all(isinstance(row, DiagnosticRow) for row in rows)
    for row, n in zip(rows, (50.0, 100.0)):
        assert row.n == n
        assert row.r == pytest.approx(0.4 * n ** -0.75)
        denom = n * (row.r ** 2 * n)
        assert row.ratio == pytest.approx(row.count_mean / denom)
        assert row.ratio_se == pytest.approx(row.count_se / denom)
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, 0.4, -0.4, [50.0], 10, stream(1))
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, -1.0, -0.75, [50.0], 10, stream(1))
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, 0.4, -0.75, [50.0], 1, stream(1))
