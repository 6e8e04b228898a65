"""Property descriptors, subset counting, and the scaling-limit estimators."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from cechlab.errors import ConfigurationError
from cechlab.geometry import PointCloud, geometric_graph
from cechlab.persistence import persistent_betti
from cechlab.properties import (DiagnosticRow, PropertyDescriptor, SmallGraph,
                                _graphs_isomorphic, _three_sigma_overlap,
                                comp, component_count, conn,
                                convergence_diagnostic, count_property,
                                diagnostic_rows_to_csv, estimate_mu,
                                iso_graph, palm_check, sep, spread,
                                subset_count, trivial_context, upsilon, zeta)
from cechlab.sampling import Density, sample_poisson, stream


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
    assert SmallGraph.path(3).degree_sequence() == (1, 1, 2)
    assert SmallGraph.cycle(5).degree_sequence() == (2, 2, 2, 2, 2)
    assert SmallGraph.path(4).is_connected()
    assert not SmallGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
    with pytest.raises(ValueError):
        SmallGraph(3, frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        SmallGraph.complete(9)
    with pytest.raises(ValueError):
        SmallGraph.cycle(2)


def test_isomorphism_distinguishes_same_degree_sequence():
    two_triangles = frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
    hexagon = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)})
    assert _graphs_isomorphic(SmallGraph.cycle(6), hexagon, 6)
    assert not _graphs_isomorphic(SmallGraph.cycle(6), two_triangles, 6)
    assert not _graphs_isomorphic(SmallGraph.path(4), SmallGraph.cycle(4).edges, 4)


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


def test_sep_isolation_is_strict_beyond_two_r():
    r = 0.25
    for gap, isolated in ((2.0 * r, False), (2.0 * r + 1e-9, True)):
        cloud = PointCloud.from_points([(0.0, 0.0), (0.1, 0.0), (0.1 + gap, 0.0)])
        ctx = sep(r).make(cloud)
        assert ctx((0, 1)) is isolated
    assert sep(r).make(PointCloud.from_points([], dim=2))(()) is True


def _within_2r(p: list, q: list, r: float) -> bool:
    """Closed squared-distance rule, written without cechlab code."""
    reach = 2.0 * r
    return sum((a - b) * (a - b) for a, b in zip(p, q)) <= reach * reach


def _isolated_by_brute_force(pts: list, chosen: tuple, r: float) -> bool:
    """No outside point within 2r of any member."""
    inside = set(chosen)
    return not any(_within_2r(pts[i], pts[j], r)
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
            check = sep(r).make(cloud)
            for chosen in _sep_cases(plain, r, rng):
                expected = _isolated_by_brute_force(plain, chosen, r)
                assert check(chosen) is expected, (len(plain), r, chosen)
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
    assert ctx.trivial and ctx.make(PointCloud.from_points([], dim=2))((0, 5)) is True


# ---------------------------------------------------------------------------
# Counting: pruned equals exhaustive
# ---------------------------------------------------------------------------


def _brute_count(g: PropertyDescriptor, cloud: PointCloud) -> int:
    return sum(g(cloud.points[list(idx)])
               for idx in combinations(range(len(cloud)), g.arity))


def _brute_subset_count(h, cloud: PointCloud) -> int:
    ctx = h.context.make(cloud)
    return sum(h.base(cloud.points[list(idx)])
               for idx in combinations(range(len(cloud)), h.arity)
               if ctx(idx))


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
    ctx = h.context.make(cloud)
    graph = geometric_graph(cloud, h.base.locality_radius())
    above = [set(nbrs) for nbrs in graph.adjacency_above]
    total = 0

    def grow(prefix: tuple, common: set) -> None:
        nonlocal total
        if len(prefix) == h.arity:
            total += bool(ctx(prefix) and h.base(cloud.points[list(prefix)]))
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
    csv = diagnostic_rows_to_csv(rows)
    assert csv.splitlines()[0] == "n,r,count_mean,count_se,ratio,ratio_se"
    assert len(csv.splitlines()) == 3
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, 0.4, -0.4, [50.0], 10, stream(1))
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, -1.0, -0.75, [50.0], 10, stream(1))
    with pytest.raises(ConfigurationError):
        convergence_diagnostic(family, f, 0.4, -0.75, [50.0], 1, stream(1))
