"""Persistence reduction, Betti queries, and the small-instance oracle."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from cechlab.filtration import _build, build_cech_filtration
from cechlab.geometry import PointCloud, miniball
from cechlab.persistence import (GF2, FieldSpec, PersistenceDiagram, _component_complexes,
                                 _rank_mod_p, betti, betti_oracle, compute_persistence,
                                 persistent_betti)


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
                assert betti(cloud, float(r), k) == betti_oracle(cloud, float(r), k)


def test_theta_one_reduces_to_ordinary_betti():
    rng = np.random.default_rng(43)
    for _ in range(60):
        cloud = PointCloud(2, rng.random((int(rng.integers(2, 10)), 2)))
        r = float(rng.uniform(0.05, 0.7))
        k = int(rng.integers(0, 2))
        assert persistent_betti(cloud, r, 1.0, k) == betti(cloud, r, k)


def _miniball_values(cloud: PointCloud, top: int) -> list[dict[tuple[int, ...], float]]:
    """Miniball radius of every q-simplex of the cloud, q = 0..top, one dict per q."""
    return [{verts: miniball(cloud.points[list(verts)]).radius
             for verts in combinations(range(len(cloud)), q + 1)} for q in range(top + 1)]


def _build_values(cloud: PointCloud, r_max: float, top: int) -> list[dict[tuple[int, ...], float]]:
    """Value of every q-simplex of the whole cloud's scalar `_build`, q = 0..top, one dict per q."""
    values: list[dict[tuple[int, ...], float]] = [{} for _ in range(top + 1)]
    for verts, value in _build(cloud, r_max, top, force=True).simplices:
        values[len(verts) - 1][verts] = value
    return values


def _persistent_rank_oracle(values: list[dict[tuple[int, ...], float]], r: float, s: float,
                            k: int, p: int) -> int:
    """Rank of H_k(K_r) -> H_k(K_s) over F_p by dense ranks; no reduction code shared.

    The image is Z_k(K_r) modulo the boundaries of K_s that lie in K_r, so
    its dimension is dim Z_k(K_r) - rank d_{k+1}(K_s) + the rank of
    d_{k+1}(K_s) restricted to the rows of the k-simplices outside K_r.
    """

    def simplices(q: int, radius: float) -> list[tuple[int, ...]]:
        return [verts for verts, value in values[q].items() if value <= radius] if q >= 0 else []

    def boundary(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]]) -> np.ndarray:
        row_index = {verts: i for i, verts in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, verts in enumerate(cols):
            for omit in range(len(verts)):
                face = verts[:omit] + verts[omit + 1:]
                if face in row_index:
                    mat[row_index[face], j] = (-1) ** omit
        return mat

    def rank(mat: np.ndarray) -> int:
        return _rank_mod_p(mat, p) if mat.size else 0

    inner = simplices(k, r)
    cycles = len(inner) - rank(boundary(simplices(k - 1, r), inner))
    outer = simplices(k, s)
    fill = boundary(outer, simplices(k + 1, s))
    outside = [i for i, verts in enumerate(outer) if values[k][verts] > r]
    return cycles - rank(fill) + rank(fill[outside])


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
        values = _miniball_values(cloud, 3)
        for theta in (1.0, 1.1, 1.2, 1.4, 2.0):
            for k in (1, 2):
                for p in (2, 3):
                    expected = _persistent_rank_oracle(values, r, theta * r, k, p)
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
    # last bit, so the dense ranks take the values of the whole cloud's
    # scalar build.
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
                values = _build_values(cloud, theta * r, 3)
                for k in (0, 1, 2):
                    for p in (2, 3):
                        expected = _persistent_rank_oracle(values, r, theta * r, k, p)
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
                whole = compute_persistence(_build(cloud, theta * r, 2, force=True), FieldSpec(p))
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
                whole = compute_persistence(_build(cloud, theta * r, 3, force=True), FieldSpec(p))
                for k in (1, 2):
                    assert persistent_betti(cloud, r, theta, k, FieldSpec(p)) == \
                        whole.rank(k, r, theta * r)
                if theta < math.sqrt(2.0):
                    assert whole.rank(1, r, theta * r) >= 1  # at least the square
                if d == 3 and theta == 1.2:
                    assert whole.rank(2, r, theta * r) >= 1  # the octahedron


def _assert_components_match_build(cloud: PointCloud, r: float, theta: float, k: int) -> int:
    """Each kept component's batched simplices equal `_build` of its sub-cloud; returns how many."""
    _, labels, simplices = _component_complexes(cloud, r, theta * r, k)
    if not simplices:
        return 0
    assert len(simplices) == k + 2
    kept = simplices[0][0][:, 0]
    for label in np.unique(labels[kept]).tolist():
        members = kept[labels[kept] == label]
        sub = PointCloud(cloud.dim, cloud.points[members])
        built = _build(sub, theta * r, k + 1, force=True).simplices
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
    assert betti(cloud, r, 0) == betti_oracle(cloud, r, 0) == 1


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
    again = PersistenceDiagram.load_csv(path)
    assert again.intervals == diagram.intervals


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
        betti_oracle(cloud, 0.3, 1)


def test_invalid_queries_rejected():
    cloud = _unit_equilateral()
    with pytest.raises(ValueError):
        persistent_betti(cloud, 0.5, 0.9, 1)
    with pytest.raises(ValueError):
        betti(cloud, -0.1, 1)
    with pytest.raises(ValueError):
        betti(cloud, 0.5, -1)
