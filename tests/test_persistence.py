"""Persistence reduction and Betti queries, checked against the dense oracle of `dense_oracle`."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from cechlab import filtration, geometry, persistence
from cechlab.errors import ConfigurationError
from cechlab.filtration import FilteredComplex, build_cech_filtration
from cechlab.geometry import PointCloud, _dist2, miniball
from cechlab.persistence import (GF2, FieldSpec, PersistenceDiagram, _component_complexes,
                                 _facet_index, betti, compute_persistence, persistent_betti,
                                 persistent_bettis)
from cechlab.sampling import Density, sample_poisson, stream
from mixed_batches import S, cubic_lattice
from dense_oracle import persistent_betti_oracle
from scalar_cech import scalar_build, scalar_persistence, validate


def _unit_equilateral() -> PointCloud:
    return PointCloud.from_points([(0.0, 0.0), (1.0, 0.0),
                                   (0.5, math.sqrt(3.0) / 2.0)])


def _unit_square() -> PointCloud:
    return PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def test_field_spec_requires_prime():
    FieldSpec(3)
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_triangle_diagram_exact():
    complex_ = build_cech_filtration(_unit_equilateral(), r_max=1.0, max_dim=2)
    diagram = compute_persistence(complex_)
    circum = 1.0 / math.sqrt(3.0)
    dim0 = sorted(diagram.in_dimension(0))
    assert len(dim0) == 3
    assert dim0[0][0] == 0.0 and dim0[0][1] == pytest.approx(0.5, abs=1e-12)
    assert dim0[1][0] == 0.0 and dim0[1][1] == pytest.approx(0.5, abs=1e-12)
    assert dim0[2] == (0.0, math.inf)
    dim1 = diagram.in_dimension(1)
    assert len(dim1) == 1
    birth, death = dim1[0]
    assert birth == pytest.approx(0.5, abs=1e-12)
    assert death == pytest.approx(circum, abs=1e-12)


def test_square_diagram_exact():
    complex_ = build_cech_filtration(_unit_square(), r_max=1.0, max_dim=2)
    diagram = compute_persistence(complex_)
    dim1 = diagram.in_dimension(1)
    assert len(dim1) == 1
    birth, death = dim1[0]
    assert birth == pytest.approx(0.5, abs=1e-12)
    assert death == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_rank_counts_strictly_surviving_intervals():
    complex_ = build_cech_filtration(_unit_equilateral(), r_max=1.0, max_dim=2)
    diagram = compute_persistence(complex_)
    circum = 1.0 / math.sqrt(3.0)
    assert diagram.rank(1, 0.5) == 1
    assert diagram.rank(1, 0.5 - 1e-12) == 0
    assert diagram.rank(1, 0.5, 0.55) == 1
    # Death exactly at the outer radius does not survive the inclusion.
    assert diagram.rank(1, 0.5, circum) == 0
    assert diagram.rank(0, 0.0) == 3
    assert diagram.rank(0, 2.0) == 1


def test_rank_refuses_radii_persistent_betti_refuses():
    # A NaN outer radius used to count nothing, and an outer radius below r
    # counted the class that died at circum < 0.56, as if theta < 1.
    diagram = compute_persistence(build_cech_filtration(_unit_equilateral(), 1.0, 2))
    for r, r_outer in ((0.5, math.nan), (0.56, 0.5), (math.nan, None), (-0.1, 0.5),
                       (math.inf, None), (0.5, math.inf)):
        with pytest.raises(ValueError, match="radii"):
            diagram.rank(1, r, r_outer)
    assert diagram.rank(1, 0.5, 0.5) == diagram.rank(1, 0.5) == 1
    assert diagram.rank(0, 0.0, 0.0) == 3


def test_persistent_betti_triangle_thresholds():
    cloud = _unit_equilateral()
    assert persistent_betti(cloud, 0.5, 1.1, 1) == 1
    assert persistent_betti(cloud, 0.5, 1.2, 1) == 0
    assert betti(cloud, 0.5, 1) == 1
    assert betti(cloud, 0.5 - 1e-9, 1) == 0


def test_two_clusters_dim0():
    cloud = PointCloud.from_points([(0.0, 0.0), (0.1, 0.0), (5.0, 0.0), (5.1, 0.0)])
    assert betti(cloud, 0.05, 0) == 2
    assert betti(cloud, 0.04, 0) == 4
    assert persistent_betti(cloud, 0.05, 40.0, 0) == 2
    assert persistent_betti(cloud, 0.05, 60.0, 0) == 1


def test_betti_agrees_with_oracle_on_random_clouds():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 11))
        cloud = PointCloud(d, rng.random((n, d)))
        for r in rng.uniform(0.05, 0.8, size=3):
            for k in (0, 1):
                assert betti(cloud, float(r), k) == persistent_betti_oracle(cloud, float(r), 1.0, k)


def test_theta_one_reduces_to_ordinary_betti():
    rng = np.random.default_rng(43)
    for _ in range(60):
        cloud = PointCloud(2, rng.random((int(rng.integers(2, 10)), 2)))
        r = float(rng.uniform(0.05, 0.7))
        k = int(rng.integers(0, 2))
        assert persistent_betti(cloud, r, 1.0, k) == betti(cloud, r, k)


def test_persistent_betti_agrees_with_rank_oracle():
    # persistent_betti (the component split, forest skip and batched build)
    # against dense ranks at theta > 1. Planted pieces make the ranks nonzero:
    # a regular polygon (a triangle included) whose cycle is born at r, and in
    # d = 3 a hollow octahedron, whose void lives on [0.816a, a) with a = 1.21r,
    # and a regular tetrahedron of side a = 1.7r, whose void lives on
    # [0.577a, 0.612a).
    rng = np.random.default_rng(89)
    nonzero = {1: 0, 2: 0}
    for trial in range(16):
        d = 2 + trial % 2
        r = float(rng.uniform(0.08, 0.2))
        pieces = []
        if trial % 4 < 2:
            m = int(rng.integers(3, 7))
            angles = np.arange(m) * 2.0 * math.pi / m
            polygon = np.full((m, d), 0.5)
            polygon[:, :2] += 0.999 * r / math.sin(math.pi / m) * np.column_stack(
                [np.cos(angles), np.sin(angles)])
            pieces.append(polygon)
        elif d == 3:
            pieces.append(0.75 + 1.21 * r * np.vstack([np.eye(3), -np.eye(3)]))
            corners = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
            pieces.append(0.15 + 1.7 * r / math.sqrt(8.0) * corners)
        planted = sum(len(piece) for piece in pieces)
        pieces.append(rng.random((int(rng.integers(1, 17 - planted)), d)))
        points = np.vstack(pieces)
        cloud = PointCloud(d, points + rng.normal(0.0, 1e-3 * r, points.shape))
        for theta in (1.0, 1.1, 1.2, 1.4, 2.0):
            for k in (1, 2):
                for p in (2, 3):
                    expected = persistent_betti_oracle(cloud, r, theta, k, FieldSpec(p))
                    assert persistent_betti(cloud, r, theta, k, FieldSpec(p)) == expected, \
                        (trial, theta, k, p)
                    nonzero[k] += expected > 0
    assert nonzero[1] > 20 and nonzero[2] > 4

    # Exact ties, where the value order of rows does not fix the order of the
    # reduction. Holed dyadic lattices: edges enter at exactly r, and right
    # triangles and squares have vertices exactly on the diametral spheres
    # of their diagonals. Thales pieces: an antipodal pair and two more
    # points on a circle, on the diametral sphere only up to rounding. At
    # such ties an edge's value (half its squared-distance root, as the
    # geometric graph tests it) and its miniball radius may differ in the
    # last bit; the oracle takes the edge value, as the filtration does.
    tied = {0: 0, 1: 0, 2: 0}
    square = np.array([(i, j) for i in range(4) for j in range(4)]) * 0.125
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(2)]) * 0.25
    clouds = []
    for lattice in (square, cube):
        spacing = float(lattice[1, -1] - lattice[0, -1])
        radii = [spacing / 2.0, math.sqrt(2.0) * spacing / 2.0]
        for _ in range(3):
            points = lattice[rng.random(len(lattice)) < 0.8][:16]
            clouds.append((PointCloud(lattice.shape[1], points), radii))
    for _ in range(4):
        r = 0.05
        pieces = []
        for offset in range(3):
            angles = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 2.0 * math.pi, 2)])
            angles += rng.uniform(0.0, math.pi)
            circle = 0.97 * r * np.column_stack([np.cos(angles), np.sin(angles)])
            pieces.append(circle + (2.0 + 0.5 * offset, 2.0))
        pieces.append(rng.random((int(rng.integers(0, 5)), 2)))
        clouds.append((PointCloud(2, np.vstack(pieces)), [r, 0.97 * r, 0.97 * r / math.sqrt(2.0)]))
    for cloud, radii in clouds:
        for r in radii:
            for theta in (1.0, 1.2, 1.4, 2.0):
                for k in (0, 1, 2):
                    for p in (2, 3):
                        expected = persistent_betti_oracle(cloud, r, theta, k, FieldSpec(p))
                        assert persistent_betti(cloud, r, theta, k, FieldSpec(p)) == expected, \
                            (cloud.points.tolist(), r, theta, k, p)
                        tied[k] += expected > 0
    assert tied[1] > 20 and tied[2] > 4, tied


def test_component_split_matches_whole_cloud_reduction():
    # persistent_betti sums ranks over components of the graph at
    # 2*theta*r, for clouds of every size; the reference reduces the whole
    # cloud at once. A planted octagon (death/birth = 1/sin(pi/8) ~ 2.6)
    # gives every theta a persistent 1-cycle, and its 8 points are the
    # smallest cloud.
    rng = np.random.default_rng(59)
    for low, high in [(49, 251)] * 8 + [(8, 49)] * 8:
        n = int(rng.integers(low, high))
        d = int(rng.integers(2, 4))
        r = 0.45 * n ** (-1.0 / d)
        angles = np.arange(8) * math.pi / 4.0
        radius = 0.999 * r / math.sin(math.pi / 8.0)  # its edges are born just below r
        octagon = np.full((8, d), 3.0)
        octagon[:, 0] += radius * np.cos(angles)
        octagon[:, 1] += radius * np.sin(angles)
        cloud = PointCloud(d, np.vstack([rng.random((n - 8, d)), octagon])[rng.permutation(n)])
        for theta in (1.0, 1.2, 1.4, 2.0):
            for p in (2, 3):
                whole = scalar_persistence(scalar_build(cloud, theta * r, 2), FieldSpec(p))
                for k in (0, 1):
                    assert persistent_betti(cloud, r, theta, k, FieldSpec(p)) == \
                        whole.rank(k, r, theta * r)
                assert whole.rank(1, r, theta * r) >= 1


def _planted_pieces(d: int, r: float) -> list[np.ndarray]:
    """Planted pieces, each at its own offset beyond the unit cube."""
    # A path whose other pairs are at least 2.11r apart: a tree at 2r that
    # closes cycles at 2*theta*r for every theta >= 1.2.
    path = np.array([(0.0, 0.0), (0.0, 1.8), (1.1, 1.8), (2.2, 1.8), (2.2, 0.0)]) * r
    # Two edges at 2r joined into a 4-cycle only by sides of 2.2r.
    strips = np.array([(0.0, 0.0), (1.9, 0.0), (1.9, 2.2), (0.0, 2.2)]) * r
    # A square of side exactly 2r (r is a power of two): its edges enter at
    # exactly r, so its cycle is born at r and dies at sqrt(2)*r.
    square = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]) * r
    pieces = [(path, 3.0), (strips, 4.0), (square, 5.0)]
    if d == 3:
        # A hollow octahedron: its void lives on [0.816a, a) with a = 1.22r.
        octahedron = np.vstack([np.eye(3), -np.eye(3)]) * 1.22 * r
        pieces.append((octahedron, 6.0))
    out = []
    for piece, offset in pieces:
        placed = np.full((len(piece), d), offset)
        placed[:, :piece.shape[1]] += piece
        out.append(placed)
    return out


def test_forest_components_are_skipped_exactly():
    # In degrees k >= 1 persistent_betti reduces, for clouds of every size,
    # only the components whose graph at 2r has a cycle. Reference: the
    # whole cloud. The 19 planted points of d = 3 are the smallest cloud.
    rng = np.random.default_rng(73)
    for low, high in [(49, 251)] * 6 + [(19, 49)] * 6:
        n = int(rng.integers(low, high))
        d = int(rng.integers(2, 4))
        r = 2.0 ** round(math.log2(0.45 * n ** (-1.0 / d)))
        planted = np.vstack(_planted_pieces(d, r))
        points = np.vstack([rng.random((n - len(planted), d)), planted])
        cloud = PointCloud(d, points[rng.permutation(n)])
        for theta in (1.0, 1.2, 1.4, 2.0):
            for p in (2, 3):
                whole = scalar_persistence(scalar_build(cloud, theta * r, 3), FieldSpec(p))
                for k in (1, 2):
                    assert persistent_betti(cloud, r, theta, k, FieldSpec(p)) == \
                        whole.rank(k, r, theta * r)
                if theta < math.sqrt(2.0):
                    assert whole.rank(1, r, theta * r) >= 1  # at least the square
                if d == 3 and theta == 1.2:
                    assert whole.rank(2, r, theta * r) >= 1  # the octahedron


def _assert_components_match_build(cloud: PointCloud, r: float, theta: float, k: int) -> int:
    """Each kept component's batched simplices equal the scalar build of its sub-cloud.

    Returns how many components were compared.
    """
    _, labels, simplices, _, _ = _component_complexes(cloud.points, [len(cloud)], r, theta * r, k)
    if not simplices:
        return 0
    assert len(simplices) == k + 2
    kept = simplices[0][0][:, 0]
    for label in np.unique(labels[kept]).tolist():
        members = kept[labels[kept] == label]
        sub = PointCloud(cloud.dim, cloud.points[members])
        built = scalar_build(sub, theta * r, k + 1).simplices
        for q, (verts, values) in enumerate(simplices):
            assert verts.shape[1] == q + 1
            mine = labels[verts[:, 0]] == label
            local = np.searchsorted(members, verts[mine])
            assert np.array_equal(members[local], verts[mine])
            assert sorted(zip(map(tuple, local.tolist()), values[mine].tolist())) == \
                sorted(sv for sv in built if len(sv[0]) == q + 1), (label, q)
    return len(np.unique(labels[kept]))


def test_batched_component_filtrations_match_build():
    # The kept components of a cloud of any size are built in one batched pass
    # (with triangle radii from geometry._triangle_radii); the reference builds
    # each one as its own sub-cloud with scalar miniball calls.
    rng = np.random.default_rng(83)
    built = 0
    for low, high in [(49, 251)] * 6 + [(1, 49)] * 6:
        n = int(rng.integers(low, high))
        d = int(rng.integers(2, 4))
        cloud = PointCloud(d, rng.random((n, d)))
        r = 0.4 * n ** (-1.0 / d)
        for theta in (1.0, 1.2, 1.4, 2.0):
            for k in (0, 1, 2):
                built += _assert_components_match_build(cloud, r, theta, k)
    # r = 0 with duplicated points: edges, triangles and tetrahedra of copies.
    pts = rng.random((40, 2))
    cloud = PointCloud(2, np.vstack([pts, pts[:20], pts[:10], pts[:5]]))
    for k in (0, 1, 2):
        built += _assert_components_match_build(cloud, 0.0, 1.5, k)
    # Planted pieces and holed dyadic lattices at exact ties: right triangles
    # whose third vertex lies on the diametral sphere of the hypotenuse.
    for d in (2, 3):
        n = 120
        r = 2.0 ** round(math.log2(0.45 * n ** (-1.0 / d)))
        planted = np.vstack(_planted_pieces(d, r))
        cloud = PointCloud(d, np.vstack([rng.random((n - len(planted), d)), planted]))
        for theta in (1.0, 1.2, 1.4, 2.0):
            for k in (0, 1, 2):
                built += _assert_components_match_build(cloud, r, theta, k)
    # Thales pieces: an antipodal pair and two more points on a circle, so the
    # third vertex of each right triangle is on the diametral sphere only up
    # to rounding, where miniball's relative slack decides.
    r = 0.05
    pieces = []
    for offset in range(12):
        angles = np.concatenate([[0.0, math.pi], rng.uniform(0.0, 2.0 * math.pi, 2)])
        angles += rng.uniform(0.0, math.pi)
        circle = 0.97 * r * np.column_stack([np.cos(angles), np.sin(angles)])
        pieces.append(circle + (2.0 + 0.5 * offset, 2.0))
    cloud = PointCloud(2, np.vstack([rng.random((30, 2))] + pieces))
    for theta in (1.0, 1.2):
        for k in (1, 2):
            built += _assert_components_match_build(cloud, r, theta, k)
    square = np.array([(i, j) for i in range(10) for j in range(10)]) * 0.125
    cube = np.array([(i, j, k) for i in range(5) for j in range(5) for k in range(5)]) * 0.25
    for lattice in (square, cube):
        cloud = PointCloud(lattice.shape[1], lattice[rng.random(len(lattice)) < 0.7])
        spacing = float(lattice[1, -1] - lattice[0, -1])
        for r in (spacing / 2.0, math.sqrt(2.0) * spacing / 2.0):
            for theta in (1.0, 1.2, 1.4):
                for k in (0, 1, 2):
                    built += _assert_components_match_build(cloud, r, theta, k)
    assert built > 200


def test_edge_value_squares_like_the_geometric_graph():
    # (a - b) ** 2 through libm pow rounds this edge's value one bit above the
    # miniball radius; x * x, as in geometric_graph, does not.
    cloud = PointCloud.from_points([(0.0, 0.0), (0.9246167895943446, 0.4141896219577419)])
    r = miniball(cloud).radius
    assert r == 0.5065740939233987
    assert betti(cloud, r, 0) == persistent_betti_oracle(cloud, r, 1.0, 0) == 1


def test_oracle_takes_the_filtration_edge_value_at_a_thales_tie():
    # An antipodal pair and two more points on a circle of radius r: the
    # pair's miniball radius is r, half the root of its squared length one
    # bit above, so the filtration leaves that diagonal out and keeps the
    # 4-cycle open. An oracle on miniball radii would fill it.
    cloud = PointCloud.from_points([(1.9704815438420973, 2.0384826031610905),
                                    (2.029518456157903, 1.9615173968389095),
                                    (2.0098153138088577, 2.047496416863103),
                                    (1.9516666781924836, 2.0040174622650464)])
    r = 0.0485
    assert miniball(cloud.points[:2]).radius <= r < 0.5 * math.dist(*cloud.points[:2])
    assert betti(cloud, r, 1) == persistent_betti_oracle(cloud, r, 1.0, 1) == 1


def test_an_edge_at_exactly_r_max_is_in_the_complex():
    # (2v)*(2v) rounds below this pair's squared length, so a neighbour test on
    # squared lengths alone dropped the edge at its own value v.
    cloud = PointCloud.from_points([(0.5495936876730595, 0.027559113243068367),
                                    (0.7535131086748066, 0.5381433132192782)])
    v = 0.5 * math.sqrt(_dist2(*cloud.as_tuples))
    assert v == 0.27489968876257115 and (2.0 * v) * (2.0 * v) < _dist2(*cloud.as_tuples)
    assert build_cech_filtration(cloud, v, 1).dimension_counts() == {0: 2, 1: 1}
    assert betti(cloud, v, 0) == persistent_betti_oracle(cloud, v, 1.0, 0) == 1
    # Random pairs, each at its own edge value: the oracle's convention, where
    # a value equal to the radius is in.
    for pair in np.random.default_rng(1).random((20_000, 2, 2)):
        cloud = PointCloud(2, pair)
        v = 0.5 * math.sqrt(_dist2(*cloud.as_tuples))
        assert betti(cloud, v, 0) == persistent_betti_oracle(cloud, v, 1.0, 0) == 1, \
            pair.tolist()


def _octagon(r: float, centre: float) -> np.ndarray:
    """A regular octagon whose edges are born just below r (death/birth ~ 2.6)."""
    angles = np.arange(8) * math.pi / 4.0
    radius = 0.999 * r / math.sin(math.pi / 8.0)
    return centre + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def _chain(n: int, gap: float) -> np.ndarray:
    return np.column_stack([np.arange(n) * gap, np.zeros(n)])


def test_persistent_bettis_match_the_oracle_per_cloud():
    # One batch mixes every kind of cloud; each rank must be its cloud's own.
    rng = np.random.default_rng(139)
    r = 0.125
    square = np.array([(i, j) for i in range(4) for j in range(4)]) * 2.0 * r
    clouds = [PointCloud.from_points([], dim=2),
              PointCloud.from_points([(0.3, 0.4)]),
              PointCloud(2, np.array([(0.0, 0.0), (5.0, 5.0), (9.0, 0.0)])),  # no kept component
              PointCloud(2, _chain(4, 1.5 * r)),  # a tree: no kept component for k >= 1
              PointCloud(2, _octagon(r, 0.5)),
              PointCloud(2, np.vstack([_octagon(r, 2.0), rng.random((6, 2))])),
              PointCloud(2, square[rng.random(16) < 0.8]),  # edges at exactly r
              PointCloud(2, square[rng.random(16) < 0.8]),
              PointCloud(2, rng.random((12, 2))),
              PointCloud(2, rng.random((16, 2)))]
    nonzero = {0: 0, 1: 0, 2: 0}
    for theta in (1.0, 1.2, 1.4, 2.0):
        for k in (0, 1, 2):
            for p in (2, 3):
                ranks = persistent_bettis(clouds, r, theta, k, FieldSpec(p))
                assert ranks.tolist() == [persistent_betti_oracle(cloud, r, theta, k, FieldSpec(p))
                                          for cloud in clouds], (theta, k, p)
                nonzero[k] += int(np.count_nonzero(ranks))
    assert nonzero[0] and nonzero[1]
    # d = 3: a hollow octahedron carries a 2-cycle on [0.816a, a) with a = 1.22r.
    octahedron = 0.5 + np.vstack([np.eye(3), -np.eye(3)]) * 1.22 * r
    clouds = [PointCloud(3, octahedron), PointCloud(3, rng.random((10, 3))),
              PointCloud.from_points([], dim=3)]
    for theta in (1.0, 1.2):
        ranks = persistent_bettis(clouds, r, theta, 2)
        assert ranks.tolist() == [persistent_betti_oracle(cloud, r, theta, 2) for cloud in clouds]
        assert ranks[0] == 1
    assert persistent_bettis([], r, 1.2, 1).tolist() == []
    with pytest.raises(ValueError, match="dimension"):
        persistent_bettis(clouds[:2] + [PointCloud(2, square)], r, 1.2, 1)


def test_persistent_bettis_equal_batches_of_one_on_figure1_clouds():
    box = Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)])
    for n, trials in ((1e3, 6), (1e4, 2)):
        r = 2.6 * n ** (-2.0 / 3.0)
        clouds = [sample_poisson(n, box, stream(17, int(n), t)) for t in range(trials)]
        for k in (0, 1, 2):
            assert persistent_bettis(clouds, r, 1.4, k).tolist() == \
                [persistent_betti(cloud, r, 1.4, k) for cloud in clouds], (n, k)


def test_triangle_cap_counts_per_cloud(monkeypatch):
    # Each cloud is under the cap and the batch together over it: the batch
    # gives every cloud's own rank, from runs of edges under the cap.
    rng = np.random.default_rng(149)
    clouds = [PointCloud(2, rng.random((12, 2))) for _ in range(10)]
    alone = [persistent_betti(cloud, 0.2, 1.5, 1) for cloud in clouds]
    candidates = []  # each cloud is one component with a cycle, so all are built
    for cloud in clouds:
        pairs, _ = filtration._edge_pairs(cloud.points, [len(cloud)], 0.3)
        candidates.append(int(np.bincount(pairs[:, 0], minlength=12)[pairs[:, 1]].sum()))
    assert max(candidates) <= 150 < sum(candidates)
    monkeypatch.setattr(geometry, "_MAX_CANDIDATES", 150)
    assert persistent_bettis(clouds, 0.2, 1.5, 1).tolist() == alone
    # One cloud over the cap is refused with its own count, alone or in a batch.
    dense = PointCloud(2, rng.random((40, 2)))
    message = _outcome(lambda: build_cech_filtration(dense, 1.0, 2))
    assert "candidate triangles" in message
    assert _outcome(lambda: persistent_betti(dense, 0.5, 2.0, 1)) == message
    assert _outcome(lambda: persistent_bettis(clouds[:3] + [dense], 0.5, 2.0, 1)) == message


def _outcome(call) -> str:
    with pytest.raises(ConfigurationError) as info:
        call()
    return str(info.value)


def test_tetrahedron_cap_counts_per_cloud(monkeypatch):
    # One level up: each cloud's candidate triangles and tetrahedra (a
    # triangle and a higher neighbour of its last vertex) are under the cap and
    # the batch's tetrahedra together over it; every cloud keeps the 2-cycle
    # of its octahedron.
    rng = np.random.default_rng(151)
    octahedron = np.vstack([np.eye(3), -np.eye(3)]) * 0.1
    clouds = [PointCloud(3, np.vstack([rng.random((12, 3)), octahedron + rng.random(3)]))
              for _ in range(10)]
    r, theta = 0.085, 1.1
    alone = [persistent_betti(cloud, r, theta, 2) for cloud in clouds]
    assert alone == [1] * 10
    triangles, tetrahedra = [], []
    for cloud in clouds:
        n = len(cloud)
        simplices, _ = filtration._component_filtrations(
            cloud.points, *filtration._edge_pairs(cloud.points, [n], theta * r),
            np.zeros(n, dtype=np.intp), np.array([True]), theta * r, 2, np.array([0]))
        higher = np.bincount(simplices[1][0][:, 0], minlength=n)
        triangles.append(int(higher[simplices[1][0][:, 1]].sum()))
        tetrahedra.append(int(higher[simplices[2][0][:, 2]].sum()))
    assert max(triangles + tetrahedra) <= 60 < sum(tetrahedra)
    monkeypatch.setattr(geometry, "_MAX_CANDIDATES", 60)
    assert persistent_bettis(clouds, r, theta, 2).tolist() == alone
    # A clique of 8 points has 56 candidate triangles and 70 tetrahedra.
    dense = PointCloud(3, rng.random((8, 3)) * 0.01)
    message = _outcome(lambda: build_cech_filtration(dense, 0.1, 3))
    assert message == "the filtration needs 70 candidate tetrahedra, above the cap of 60"
    assert _outcome(lambda: persistent_betti(dense, r, theta, 2)) == message
    assert _outcome(lambda: persistent_bettis(clouds[:3] + [dense], r, theta, 2)) == message


def test_persistent_betti_monotone_in_theta():
    rng = np.random.default_rng(47)
    for _ in range(20):
        cloud = PointCloud(2, rng.random((9, 2)))
        r = float(rng.uniform(0.1, 0.4))
        values = [persistent_betti(cloud, r, theta, 1)
                  for theta in (1.0, 1.1, 1.3, 1.6, 2.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_field_characteristics_agree_in_the_plane():
    rng = np.random.default_rng(53)
    gf3 = FieldSpec(3)
    for _ in range(15):
        cloud = PointCloud(2, rng.random((8, 2)))
        complex_ = build_cech_filtration(cloud, 0.5, 2)
        d2 = compute_persistence(complex_, GF2)
        d3 = compute_persistence(complex_, gf3)
        assert d2.intervals == d3.intervals


def test_diagram_deterministic():
    rng = np.random.default_rng(59)
    cloud = PointCloud(2, rng.random((10, 2)))
    complex_ = build_cech_filtration(cloud, 0.6, 2)
    assert compute_persistence(complex_).intervals == compute_persistence(complex_).intervals


def test_diagrams_match_the_scalar_reduction():
    # compute_persistence reads its pairs off the batched reducer; the
    # reference reduces the whole complex column by column with its own loop.
    rng = np.random.default_rng(89)
    complexes = [FilteredComplex(vertex_count=0, max_dim=2, simplices=()),
                 scalar_build(PointCloud.from_points([(0.3, 0.4)]), 0.5, 2)]
    for _ in range(24):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        cloud = PointCloud(d, rng.random((n, d)))
        r_max = float(rng.uniform(0.3, 1.2)) * n ** (-1.0 / d)
        max_dim = int(rng.integers(1, 4))  # capped at 1 or 2: top-dimension essentials
        complexes.append(scalar_build(cloud, r_max, max_dim))
    # Dyadic lattices with holes, at exact ties: equal values and right triangles.
    square = np.array([(i, j) for i in range(8) for j in range(8)]) * 0.125
    cube = np.array([(i, j, k) for i in range(4) for j in range(4) for k in range(4)]) * 0.25
    for lattice in (square, cube):
        cloud = PointCloud(lattice.shape[1], lattice[rng.random(len(lattice)) < 0.7])
        spacing = float(lattice[1, -1] - lattice[0, -1])
        for r_max in (spacing / 2.0, math.sqrt(2.0) * spacing / 2.0, spacing):
            for max_dim in (1, 2, 3):
                complexes.append(scalar_build(cloud, r_max, max_dim))
    top_essential = 0
    for complex_ in complexes:
        for p in (2, 3):
            diagram = compute_persistence(complex_, FieldSpec(p))
            assert diagram == scalar_persistence(complex_, FieldSpec(p)), complex_.max_dim
            top_essential += any(dim == complex_.max_dim > 0 and math.isinf(death)
                                 for dim, _, death in diagram.intervals)
    assert compute_persistence(complexes[0]).intervals == ()
    assert compute_persistence(complexes[1]).intervals == ((0, 0.0, math.inf),)
    assert top_essential > 10, top_essential


def test_builder_facets_are_the_looked_up_facets():
    # The builder's facets of every dimension from triangles up (column j: the
    # facet without vertex j) are those `_facet_index` finds by code, on whole
    # clouds and on the kept components of a batch, in d = 2 and 3 and on
    # dyadic lattices whose edges, triangles and tetrahedra sit exactly at
    # r_max. Vertices and edges have none.
    rng = np.random.default_rng(97)
    clouds = [rng.random((n, d)) for d in (2, 3) for n in (3, 40, 300)]
    clouds += [cubic_lattice(d, count) for d in (2, 3) for count in (9, 64)]
    tetrahedra = 0
    for points in clouds:
        n, d = points.shape
        for r_max in (S / 2.0, S, 0.6 * n ** (-1.0 / d)):
            one = np.zeros(n, dtype=np.intp)
            simplices, facets = filtration._component_filtrations(
                points, *filtration._edge_pairs(points, [n], r_max), one, np.array([True]),
                r_max, d, np.array([0]))
            assert facets[:2] == [None, None] and len(facets) == d + 1
            for q in range(2, d + 1):
                assert np.array_equal(facets[q], _facet_index(simplices, simplices[q][0], n))
            tetrahedra += d == 3 and len(simplices[3][0])
    assert tetrahedra > 100, tetrahedra
    batch = [rng.random((int(m), 2)) for m in rng.integers(10, 60, 12)]
    batch += [cubic_lattice(2, 30), cubic_lattice(2, 16)]
    points = np.concatenate(batch)
    for r in (S / 2.0, 0.08):
        for k in (1, 2):
            _, labels, simplices, facets, _ = _component_complexes(
                points, [len(pts) for pts in batch], r, 1.4 * r, k)
            assert simplices and len(simplices[k + 1][0])
            for q in range(2, k + 2):
                assert np.array_equal(facets[q], _facet_index(simplices, simplices[q][0],
                                                              len(labels)))


def test_a_missing_face_is_refused():
    tetrahedron = scalar_build(PointCloud(3, np.vstack([np.zeros(3), np.eye(3)])), 1.0, 3)
    assert len(tetrahedron) == 15
    compute_persistence(tetrahedron)
    for face in [(1,), (0, 1), (0, 2), (1, 2, 3), (0, 1, 3)]:
        missing = FilteredComplex(
            vertex_count=4, max_dim=3,
            simplices=tuple(sv for sv in tetrahedron.simplices if sv[0] != face))
        with pytest.raises(ValueError, match="missing"):
            validate(missing)
        for p in (2, 3):
            with pytest.raises(ValueError, match="missing"):
                compute_persistence(missing, FieldSpec(p))


def _long_intervals(diagram: PersistenceDiagram, dim: int, r_max: float, cut: float):
    out = []
    for birth, death in diagram.in_dimension(dim):
        death = min(death, r_max)
        if death - birth > cut:
            out.append((birth, death))
    return sorted(out)


def test_stability_under_small_perturbation():
    rng = np.random.default_rng(61)
    delta = 1e-3
    r_max = 0.5
    cloud = PointCloud(2, rng.random((12, 2)))
    offsets = rng.standard_normal((12, 2))
    offsets *= delta / np.linalg.norm(offsets, axis=1, keepdims=True)
    moved = PointCloud(2, cloud.points + offsets)
    for dim in (0, 1):
        a = compute_persistence(build_cech_filtration(cloud, r_max, 2))
        b = compute_persistence(build_cech_filtration(moved, r_max, 2))
        left = _long_intervals(a, dim, r_max, 4.0 * delta)
        right = _long_intervals(b, dim, r_max, 4.0 * delta)
        assert len(left) == len(right)
        for (b1, d1), (b2, d2) in zip(left, right):
            assert abs(b1 - b2) <= 2.0 * delta
            assert abs(d1 - d2) <= 2.0 * delta


def test_diagram_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(67)
    cloud = PointCloud(2, rng.random((9, 2)))
    diagram = compute_persistence(build_cech_filtration(cloud, 0.6, 2))
    assert any(math.isinf(death) for _, _, death in diagram.intervals)
    path = tmp_path / "diagram.csv"
    diagram.save_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["dim", "birth", "death"]
    again = tuple((int(dim), float(birth), float(death)) for dim, birth, death in rows[1:])
    assert again == diagram.intervals


def test_empty_and_single_point_cases():
    empty = PointCloud.from_points([], dim=2)
    assert betti(empty, 0.5, 0) == 0
    assert betti(empty, 0.5, 1) == 0
    single = PointCloud.from_points([(0.3, 0.4)])
    assert betti(single, 0.2, 0) == 1
    assert persistent_betti(single, 0.2, 3.0, 0) == 1
    assert betti(single, 0.0, 0) == 1


def test_oracle_rejects_oversized_input():
    rng = np.random.default_rng(71)
    cloud = PointCloud(2, rng.random((17, 2)))
    with pytest.raises(ValueError):
        persistent_betti_oracle(cloud, 0.3, 1.0, 1)
    with pytest.raises(ValueError):
        persistent_betti_oracle(cloud, 0.3, 1.4, 1)
    persistent_betti_oracle(PointCloud(2, cloud.points[:16]), 0.3, 1.4, 1)


def test_invalid_queries_rejected():
    cloud = _unit_equilateral()
    with pytest.raises(ValueError):
        betti(cloud, -0.1, 1)
    with pytest.raises(ValueError):
        betti(cloud, 0.5, -1)
    for rank in (persistent_betti, persistent_betti_oracle):
        for r, theta, k in [(0.5, 0.9, 1), (0.5, math.inf, 1), (0.5, math.nan, 1),
                            (-0.1, 1.2, 1), (math.inf, 1.2, 1), (0.5, 1.2, -1)]:
            with pytest.raises(ValueError):
                rank(cloud, r, theta, k)


def test_a_reduction_wider_than_the_cap_is_refused_before_any_column(monkeypatch):
    # Twelve points within 2r of each other make one component: 220 triangle
    # columns, each as wide as the component's 66 edge rows, 14,520 bits in all.
    cluster = PointCloud(2, np.random.default_rng(269).random((12, 2)) * 0.1)
    expected = persistent_betti(cluster, 0.2, 1.5, 1)
    monkeypatch.setattr(persistence, "_MAX_COLUMN_BITS", 14_520)
    assert persistent_betti(cluster, 0.2, 1.5, 1) == expected
    monkeypatch.setattr(persistence, "_MAX_COLUMN_BITS", 14_519)
    message = ("the reduction of 220 columns needs 14520 bits, above the cap of 14519; its "
               "largest component holds 12 points and 66 rows: the graph at the outer "
               "radius percolates")
    built = []
    monkeypatch.setattr(persistence, "_reduce_gfp", lambda *args: built.append(args))
    for call in (lambda: persistent_betti(cluster, 0.2, 1.5, 1),
                 lambda: persistent_betti(cluster, 0.2, 1.5, 1, FieldSpec(3)),
                 lambda: compute_persistence(build_cech_filtration(cluster, 0.3, 2))):
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == message
    assert not built
    # A percolating Poisson cloud: the message names its giant component's size.
    monkeypatch.setattr(persistence, "_MAX_COLUMN_BITS", 1000)
    cloud = sample_poisson(60.0, Density.unit_cube(2), stream(271))
    sizes = np.bincount(geometry._labels(len(cloud), geometry._close_pairs(
        cloud.points, [len(cloud)], 2.0 * 1.4 * 0.05)))
    assert 0.7 * len(cloud) < sizes.max() < len(cloud)
    with pytest.raises(ConfigurationError,
                       match=f"largest component holds {sizes.max()} points and"):
        persistent_betti(cloud, 0.05, 1.4, 1)
