"""Smallest enclosing balls, geometric graphs and cloud IO."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from cechlab.geometry import (Ball, PointCloud, _circumball, _circumradii, _labels,
                              _tree_pairs, _triangle_radii, ball_volume, geometric_graph,
                              miniball)
from cechlab.sampling import Density, sample_poisson, stream


def _miniball_oracle(points: np.ndarray) -> float:
    """Radius by exhaustive support enumeration, independent of Welzl.

    The optimum ball is the circumball of some support subset of at most
    d+1 points; try them all and keep the smallest that contains
    everything.
    """
    pts = [tuple(map(float, p)) for p in points]
    d = len(pts[0])
    best = math.inf
    for size in range(1, min(d + 1, len(pts)) + 1):
        for support in combinations(pts, size):
            if size == 1:
                center, radius = np.asarray(support[0]), 0.0
            else:
                base = np.asarray(support[0])
                u = np.asarray(support[1:]) - base
                gram = u @ u.T
                rhs = 0.5 * np.einsum("ij,ij->i", u, u)
                try:
                    coeff = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    continue
                center = base + coeff @ u
                radius = float(np.linalg.norm(center - base))
            if radius < best:
                dist = np.linalg.norm(points - center, axis=1)
                if float(dist.max()) <= radius * (1.0 + 1e-9) + 1e-12:
                    best = radius
    return best


def test_miniball_degenerate_sizes():
    assert miniball([(2.0, 1.0)]).radius == 0.0
    ball = miniball([(0.0, 0.0), (2.0, 0.0)])
    assert ball.center == pytest.approx((1.0, 0.0))
    assert ball.radius == pytest.approx(1.0)


def test_miniball_equilateral_triangle():
    s = 1.0
    pts = [(0.0, 0.0), (s, 0.0), (s / 2.0, s * math.sqrt(3.0) / 2.0)]
    assert miniball(pts).radius == pytest.approx(s / math.sqrt(3.0), abs=1e-12)


def test_miniball_obtuse_triangle_uses_longest_side():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 0.1)]
    ball = miniball(pts)
    assert ball.radius == pytest.approx(2.0, abs=1e-12)
    assert ball.center == pytest.approx((2.0, 0.0), abs=1e-12)


def test_miniball_square_and_cube():
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert miniball(square).radius == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    cube = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    assert miniball(cube).radius == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_miniball_matches_support_oracle():
    rng = np.random.default_rng(7)
    for _ in range(120):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 13))
        pts = rng.random((n, d)) * rng.choice([1e-3, 1.0, 50.0])
        ball = miniball(pts)
        assert ball.radius == pytest.approx(_miniball_oracle(pts), rel=1e-9)
        dist = np.linalg.norm(pts - np.asarray(ball.center), axis=1)
        assert float(dist.max()) <= ball.radius * (1.0 + 1e-9)


def test_miniball_translation_and_scale_equivariance():
    rng = np.random.default_rng(3)
    pts = rng.random((9, 3))
    base = miniball(pts)
    shifted = miniball(pts + 100.0)
    assert shifted.radius == pytest.approx(base.radius, rel=1e-9)
    scaled = miniball(pts * 0.001)
    assert scaled.radius == pytest.approx(base.radius * 0.001, rel=1e-9)


def test_miniball_duplicates_and_empty():
    assert miniball([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)]).radius == 0.0
    with pytest.raises(ValueError):
        miniball([])


def _miniball_radii(triangles: np.ndarray) -> np.ndarray:
    return np.array([miniball(t).radius for t in triangles])


def test_triangle_radii_bit_equal_to_miniball():
    # The batched twin must reproduce miniball's three-point branch exactly
    # (==, not approx): filtration values, and so every complex, depend on it.
    rng = np.random.default_rng(17)
    equilateral = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    for d in (2, 3):
        near = np.zeros((10_000, 3, d))
        near[:, :, :2] = equilateral
        near = (near * rng.uniform(1e-3, 2.0, (len(near), 1, 1))
                + rng.normal(0.0, 1e-4, near.shape) + rng.random((len(near), 1, d)))
        triangles = np.concatenate([rng.random((90_000, 3, d)), near])
        assert np.array_equal(_triangle_radii(triangles), _miniball_radii(triangles))
    # Every triple of a dyadic 5x5 lattice at spacing 1/8: right, isosceles
    # and collinear triangles with exact ties, in the plane and lifted to 3d.
    grid = np.array([(i, j) for i in range(5) for j in range(5)]) * 0.125
    triangles = grid[np.array(list(combinations(range(len(grid)), 3)))]
    assert len(triangles) == 2300
    lifted = np.concatenate([triangles, np.full((2300, 3, 1), 0.375)], axis=2)
    for batch in (triangles, lifted):
        assert np.array_equal(_triangle_radii(batch), _miniball_radii(batch))
    # Duplicated and exactly collinear triples.
    base = rng.random((200, 2))
    step = rng.random((200, 2))
    special = np.concatenate([
        np.stack([base, base, base], axis=1),
        np.stack([base, base, base + step], axis=1),
        np.stack([base + step, base, base], axis=1),
        np.stack([base, base + step, base], axis=1),
        np.stack([base, base + step, base + 2.0 * step], axis=1),
        np.stack([base + 2.0 * step, base, base + step], axis=1),
        grid[np.array([(0, 1, 2), (0, 6, 12), (24, 12, 0), (4, 3, 2)])],
    ])
    assert np.array_equal(_triangle_radii(special), _miniball_radii(special))


def test_circumradii_singular_gram_falls_back_per_triangle():
    # One singular gram fails a stacked np.linalg.solve; the collinear triple
    # must get _circumball's least-squares radius and its neighbours their own.
    rng = np.random.default_rng(19)
    triangles = rng.random((64, 3, 2))
    triangles[5] = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    triangles[40] = [(0.5, 0.5), (0.5, 0.5), (0.25, 0.75)]
    u = triangles[:, 1:] - triangles[:, :1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(u @ u.transpose(0, 2, 1), np.ones((len(u), 2, 1)))
    expected = np.array([_circumball(list(map(tuple, t.tolist())))[1] for t in triangles])
    assert np.array_equal(_circumradii(triangles), expected)


def test_ball_contains_closed_boundary():
    ball = Ball((0.0, 0.0), 1.0)
    assert ball.contains((1.0, 0.0))
    assert not ball.contains((1.0 + 1e-6, 0.0))


def test_ball_volume_known_dimensions():
    assert ball_volume(1, 2.0) == pytest.approx(4.0)
    assert ball_volume(2, 3.0) == pytest.approx(math.pi * 9.0)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0)


def test_geometric_graph_path_example():
    cloud = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    graph = geometric_graph(cloud, 1.0)
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.is_connected()
    assert graph.component_count() == 1


def test_geometric_graph_closed_at_exact_distance():
    cloud = PointCloud.from_points([(0.0, 0.0), (0.5, 0.0)])
    assert geometric_graph(cloud, 0.5).edges == ((0, 1),)
    assert geometric_graph(cloud, 0.5 - 1e-12).edges == ()


def test_geometric_graph_zero_radius_groups_duplicates():
    cloud = PointCloud.from_points([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)])
    graph = geometric_graph(cloud, 0.0)
    assert graph.edges == ((0, 1),)
    assert graph.component_count() == 2


def test_geometric_graph_grid_matches_brute_force():
    rng = np.random.default_rng(11)
    clouds = [(rng.random((n, 2)), (0.05, 0.2, 0.6)) for n in (5, 47, 48, 49, 130)]
    # Exact-tie lattices, at r equal to a lattice distance: the k-d tree
    # pair query must keep the closed convention. Dyadic coordinates make
    # axis-neighbour distances exact; the doubled lattice adds duplicate
    # points for r = 0.
    square = np.array([(i, j) for i in range(8) for j in range(8)]) * 0.125 + 0.25
    cube = np.array([(i, j, k) for i in range(4) for j in range(4) for k in range(4)]) * 0.25
    for lattice in (square, cube, np.vstack([square, square])):
        gaps = np.sqrt(((lattice[0] - lattice) ** 2).sum(axis=1))
        assert gaps[1] ** 2 == ((lattice[0] - lattice[1]) ** 2).sum()  # an exact tie
        clouds.append((lattice, (0.0, *(float(g) for g in gaps[[1, 2, 9]]))))
    for pts, radii in clouds:
        n, d = pts.shape
        for r in radii:
            edges = set(geometric_graph(PointCloud(d, pts), r).edges)
            expected = {(i, j) for i in range(n) for j in range(i + 1, n)
                        if ((pts[i] - pts[j]) ** 2).sum() <= r * r}
            assert edges == expected


def _csgraph_labels(n: int, pairs: np.ndarray) -> np.ndarray:
    adjacency = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                           shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def test_labels_match_csgraph():
    # The numpy labeller against scipy's: the same array, numbering included
    # (components in the order of their smallest index).
    rng = np.random.default_rng(17)
    cases = [(0, np.zeros((0, 2), dtype=np.intp)), (1, np.zeros((0, 2), dtype=np.intp)),
             (1, np.array([[0, 0]])), (7, np.zeros((0, 2), dtype=np.intp))]
    for n in range(2, 61):
        for m in (1, n // 2, n, 3 * n):
            pairs = np.sort(rng.integers(0, n, size=(m, 2)), axis=1)
            cases.append((n, pairs))
            cases.append((n, np.vstack([pairs, pairs[::-1]])))  # every pair twice
    for n in (2, 9, 60):
        path = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        cases += [(n, path), (n, path[::-1]), (n + 3, path + 3)]
        for centre in (0, n // 2, n - 1):
            leaves = np.delete(np.arange(n), centre)
            star = np.sort(np.column_stack([leaves, np.full(n - 1, centre)]), axis=1)
            cases += [(n, star), (n, star[::-1])]
    for n, pairs in cases:
        assert np.array_equal(_labels(n, pairs), _csgraph_labels(n, pairs)), (n, pairs)
    # A figure-1 cloud at n = 1e5 (d = 2, theta = 1.4, r = 2.6 n^(-2/3)),
    # labelled at 2*theta*r and at 2r.
    box = Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)])
    cloud = sample_poisson(1e5, box, stream(0, 0, 0))
    r = 2.6 * 1e5 ** (-2.0 / 3.0)
    for scale in (2.0 * 1.4 * r, 2.0 * r):
        pairs = _tree_pairs(cloud, scale)
        assert np.array_equal(_labels(len(cloud), pairs), _csgraph_labels(len(cloud), pairs))


def test_geometric_graph_monotone_in_radius():
    rng = np.random.default_rng(2)
    cloud = PointCloud(3, rng.random((30, 3)))
    prev: set = set()
    for r in (0.1, 0.3, 0.5, 0.9):
        edges = set(geometric_graph(cloud, r).edges)
        assert prev <= edges
        prev = edges


def test_geometric_graph_translation_invariant():
    rng = np.random.default_rng(5)
    cloud = PointCloud(2, rng.random((25, 2)))
    moved = cloud.translated((17.0, -4.0))
    assert geometric_graph(cloud, 0.3).edges == geometric_graph(moved, 0.3).edges


def test_cloud_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(19)
    cloud = PointCloud(3, rng.standard_normal((14, 3)))
    path = tmp_path / "cloud.txt"
    cloud.save(path)
    again = PointCloud.load(path)
    assert again.dim == 3
    assert np.array_equal(again.points, cloud.points)


def test_cloud_empty_roundtrip(tmp_path):
    cloud = PointCloud.from_points([], dim=2)
    path = tmp_path / "empty.txt"
    cloud.save(path)
    again = PointCloud.load(path)
    assert len(again) == 0 and again.dim == 2


def test_cloud_validation_and_flags():
    with pytest.raises(ValueError):
        PointCloud(2, np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(2, np.zeros((3, 3)))
    dup = PointCloud.from_points([(0.0, 0.0), (0.0, 0.0)])
    assert dup.has_duplicates
    assert not PointCloud.from_points([(0.0, 0.0), (1.0, 0.0)]).has_duplicates
    assert PointCloud.from_points([(0.0, 0.0), (3.0, 4.0)]).diameter() == pytest.approx(5.0)


def test_cloud_points_are_read_only():
    cloud = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0
