"""Cech filtration construction against brute-force enumeration."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from cechlab.errors import ConfigurationError
from cechlab.geometry import PointCloud, miniball
from cechlab.filtration import FilteredComplex, _build, build_cech_filtration
from scalar_cech import scalar_build, validate


def _brute_force_simplices(cloud: PointCloud, r_max: float, max_dim: int):
    """Every subset whose smallest enclosing ball fits within r_max.

    Independent route: no neighborhood pruning, no facet clamping; the
    miniball radius of a subset never exceeds that of a superset, so
    this enumeration is closed under faces automatically.
    """
    out = {}
    pts = cloud.points
    for size in range(1, max_dim + 2):
        for combo in combinations(range(len(cloud)), size):
            radius = miniball(pts[list(combo)]).radius
            if radius <= r_max:
                out[combo] = radius
    return out


def test_single_edge_values():
    cloud = PointCloud.from_points([(0.0, 0.0), (0.8, 0.0)])
    complex_ = build_cech_filtration(cloud, r_max=1.0, max_dim=1)
    values = dict(complex_.simplices)
    assert values[(0,)] == 0.0 and values[(1,)] == 0.0
    assert values[(0, 1)] == pytest.approx(0.4, abs=1e-15)


def test_r_max_below_half_min_distance_gives_vertices_only():
    cloud = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    complex_ = build_cech_filtration(cloud, r_max=0.49, max_dim=2)
    assert complex_.dimension_counts() == {0: 3}


def test_equilateral_triangle_filtration_values():
    s = 1.0
    cloud = PointCloud.from_points([(0.0, 0.0), (s, 0.0), (s / 2, s * math.sqrt(3) / 2)])
    complex_ = build_cech_filtration(cloud, r_max=1.0, max_dim=2)
    values = dict(complex_.simplices)
    assert values[(0, 1)] == pytest.approx(0.5, abs=1e-12)
    assert values[(0, 1, 2)] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_obtuse_triangle_enters_with_longest_edge():
    cloud = PointCloud.from_points([(0.0, 0.0), (4.0, 0.0), (2.0, 0.1)])
    complex_ = build_cech_filtration(cloud, r_max=3.0, max_dim=2)
    values = dict(complex_.simplices)
    # Miniball of an obtuse triangle is the diametral ball of its longest side.
    assert values[(0, 1, 2)] == pytest.approx(values[(0, 1)], abs=1e-12)


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(25):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 11))
        cloud = PointCloud(d, rng.random((n, d)))
        r_max = float(rng.uniform(0.15, 0.7))
        max_dim = int(rng.integers(1, min(d, 3) + 1))
        complex_ = build_cech_filtration(cloud, r_max, max_dim)
        got = dict(complex_.simplices)
        expected = _brute_force_simplices(cloud, r_max, max_dim)
        assert set(got) == set(expected)
        for simplex, value in expected.items():
            assert got[simplex] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_validate_accepts_random_builds():
    rng = np.random.default_rng(29)
    for _ in range(10):
        cloud = PointCloud(2, rng.random((12, 2)))
        complex_ = build_cech_filtration(cloud, 0.5, 2)
        validate(complex_)


def test_simplices_sorted_by_value_then_dimension():
    rng = np.random.default_rng(31)
    cloud = PointCloud(2, rng.random((10, 2)))
    complex_ = build_cech_filtration(cloud, 0.6, 2)
    keys = [(value, len(simplex), simplex) for simplex, value in complex_.simplices]
    assert keys == sorted(keys)


def test_face_values_never_exceed_cofaces():
    rng = np.random.default_rng(37)
    cloud = PointCloud(2, rng.random((11, 2)))
    complex_ = build_cech_filtration(cloud, 0.7, 2)
    values = dict(complex_.simplices)
    for simplex, value in values.items():
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            if face:
                assert values[face] <= value


def test_max_dim_above_ambient_refused_unless_forced():
    cloud = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        build_cech_filtration(cloud, 1.0, max_dim=3)
    forced = build_cech_filtration(cloud, 1.0, max_dim=3, force=True)
    assert 3 in forced.dimension_counts()


def test_invalid_r_max_rejected():
    cloud = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        build_cech_filtration(cloud, 0.0, 1)
    with pytest.raises(ValueError):
        build_cech_filtration(cloud, math.inf, 1)


def test_whole_cloud_build_equals_scalar_reference():
    # Every filtration comes from the batched builder with all points under
    # one label; the reference grows each simplex with its own miniball call.
    # Equality is of the sorted (vertices, value) tuples, bit for bit.
    rng = np.random.default_rng(97)
    cases = []
    for _ in range(24):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 41))
        cases.append((PointCloud(d, rng.random((n, d))),
                      float(rng.choice([0.08, 0.15, 0.25]) * rng.uniform(0.5, 1.5))))
    # Holed dyadic lattices: edges at exactly r_max, right triangles and
    # squares with vertices exactly on the diametral sphere of a diagonal.
    square = np.array([(i, j) for i in range(6) for j in range(6)]) * 0.125
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)]) * 0.25
    for lattice in (square, cube):
        spacing = float(lattice[1, -1] - lattice[0, -1])
        cloud = PointCloud(lattice.shape[1], lattice[rng.random(len(lattice)) < 0.8])
        for factor in (1.0, math.sqrt(2.0), math.sqrt(3.0)):
            cases.append((cloud, factor * spacing / 2.0))
    # Thales pieces: an antipodal pair and two more points on a circle of
    # radius r, on the diametral sphere only up to rounding.
    pieces = []
    for offset in range(4):
        angles = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 2.0 * math.pi, 2)])
        angles += rng.uniform(0.0, math.pi)
        pieces.append(0.05 * np.column_stack([np.cos(angles), np.sin(angles)])
                      + (2.0 + 0.5 * offset, 2.0))
    cases.append((PointCloud(2, np.vstack(pieces)), 0.05))
    # No point and one point.
    cases += [(PointCloud.from_points([], dim=2), 0.3), (PointCloud.from_points([(0.5, 0.5)]), 0.3)]
    for cloud, r_max in cases:
        for max_dim in range(4 if len(cloud) > 20 else 6):  # levels 4 and 5 on small clouds
            built = build_cech_filtration(cloud, r_max, max_dim, force=True)
            assert built == scalar_build(cloud, r_max, max_dim), (cloud.points.tolist(), r_max)
    # r_max = 0 (only `_build` takes it): edges, triangles and tetrahedra of copies.
    pts = rng.random((12, 3))
    cloud = PointCloud(3, np.vstack([pts, pts[:6], pts[:3], pts[:2]]))
    for max_dim in range(4):
        assert _build(cloud, 0.0, max_dim) == scalar_build(cloud, 0.0, max_dim)
    assert scalar_build(cloud, 0.0, 3).dimension_counts() == {0: 23, 1: 18, 2: 9, 3: 2}


def test_dense_cloud_fails_fast():
    # 400 points at r_max = 1 in the unit square form one clique: 10,586,800
    # candidate triangles, above the builder's cap, refused before any is made.
    cloud = PointCloud(2, np.random.default_rng(101).random((400, 2)))
    with pytest.raises(ConfigurationError, match="candidate triangles"):
        build_cech_filtration(cloud, 1.0, 2)
    assert len(build_cech_filtration(cloud, 1.0, 1)) == 400 + 400 * 399 // 2


def test_validate_rejects_broken_complexes():
    good = FilteredComplex(vertex_count=2, max_dim=1,
                           simplices=(((0,), 0.0), ((1,), 0.0), ((0, 1), 0.5)))
    validate(good)
    missing_face = FilteredComplex(vertex_count=2, max_dim=1,
                                   simplices=(((0,), 0.0), ((0, 1), 0.5)))
    with pytest.raises(ValueError):
        validate(missing_face)
    bad_order = FilteredComplex(vertex_count=2, max_dim=1,
                                simplices=(((0,), 0.0), ((1,), 0.0), ((0, 1), -1.0)))
    with pytest.raises(ValueError):
        validate(bad_order)
