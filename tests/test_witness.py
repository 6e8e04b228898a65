"""Witness construction, perturbation stability, and the arity search."""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np
import pytest

from cechlab.errors import ConfigurationError
from cechlab.filtration import build_cech_filtration
from cechlab.geometry import PointCloud
from cechlab.persistence import GF2, compute_persistence, persistent_betti
from cechlab.sampling import stream
from cechlab.witness import (CycleWitness, MBracket, _batch_ratios,
                             _config_ratio, _highest_bit,
                             _triangle_persistence_ratios, _triangle_ratio,
                             _witness_from_config, bracket_m,
                             construct_witness, perturb_and_verify,
                             perturbation_radius, search_m,
                             upper_bound_constant)


def test_construct_witness_geometry_is_exact():
    for theta in (1.2, 1.5, 2.0):
        witness = construct_witness(1, theta)
        assert witness.R == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)
        assert witness.r == pytest.approx(0.99 * witness.R / theta, abs=1e-12)
        assert witness.points.dim == 3
        assert witness.verified_rank >= 1
        assert witness.verify() >= 1
        # Vertices stay on the boundary of the unit simplex.
        coords = witness.points.points
        assert np.allclose(coords.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(coords >= -1e-12)
        assert np.any(np.isclose(coords, 0.0, atol=1e-12), axis=1).all()


def test_construct_witness_is_deterministic():
    a = construct_witness(1, 1.3)
    b = construct_witness(1, 1.3)
    assert np.array_equal(a.points.points, b.points.points)
    assert a.r == b.r and a.R == b.R


def test_construct_witness_validation():
    with pytest.raises(ValueError):
        construct_witness(0, 1.5)
    with pytest.raises(ValueError):
        construct_witness(1, 0.9)
    with pytest.raises(ValueError):
        construct_witness(1, math.inf)


def test_construct_witness_refuses_an_oversized_subdivision_fast():
    # k = 3 at theta = 1 would need about 5 * 24**7 cells; the prediction of
    # the next round's cell count stops it before memory runs out.
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match=r"k=3, theta=1\.0 .* 69120 cells"):
        construct_witness(3, 1.0)
    assert time.perf_counter() - start < 1.0


def test_construct_witness_k2_stops_before_the_triangle_candidates():
    # The k = 2 witness at theta = 1 is one 2594-point component with 5.3e8
    # candidate triangles; the batched build refuses them before allocating.
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match=r"533726666 candidate triangles"):
        construct_witness(2, 1.0)
    assert time.perf_counter() - start < 30.0


def test_zeta_indicator_scale_invariance_at_powers_of_two():
    # The indicator of a persistent 1-cycle is persistent_betti(...) >= 1.
    witness = construct_witness(1, 1.5)
    pts = witness.points.points
    assert persistent_betti(witness.points, witness.r, 1.5, 1) >= 1
    for lam in (0.5, 2.0, 8.0):
        assert persistent_betti(PointCloud(3, lam * pts), lam * witness.r, 1.5, 1) >= 1
    # Far past the death radius nothing persists.
    assert persistent_betti(witness.points, 2.0 * witness.R, 1.5, 1) == 0


def test_perturbation_radius_formula():
    delta = perturbation_radius(0.4, 0.2, 1.5)
    assert delta == pytest.approx(0.04, abs=1e-15)
    assert (0.4 - delta) / (0.2 + delta) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        perturbation_radius(0.3, 0.2, 1.5)
    with pytest.raises(ValueError):
        perturbation_radius(0.4, -0.2, 1.5)
    with pytest.raises(ValueError):
        perturbation_radius(0.4, 0.2, 0.9)


def test_perturb_and_verify_within_the_safe_radius():
    witness = construct_witness(1, 1.5)
    assert perturb_and_verify(witness, stream(21), 40) == 1.0


def test_perturb_and_verify_negative_control():
    witness = construct_witness(1, 1.5)
    assert perturb_and_verify(witness, stream(23), 25, delta_scale=30.0) < 1.0


def test_perturb_and_verify_zero_trials_warns():
    witness = construct_witness(1, 1.2)
    with pytest.warns(UserWarning):
        assert perturb_and_verify(witness, stream(1), 0) == 1.0
    with pytest.raises(ValueError):
        perturb_and_verify(witness, stream(1), -1)


def test_cycle_witness_validation():
    cloud = PointCloud(2, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        CycleWitness(cloud, r=0.2, theta=0.9, k=1, R=0.4, verified_rank=1)
    with pytest.raises(ValueError):
        CycleWitness(cloud, r=0.2, theta=1.5, k=1, R=0.25, verified_rank=1)
    with pytest.raises(ValueError):
        CycleWitness(cloud, r=0.2, theta=1.5, k=1, R=0.4, verified_rank=0)


def test_witness_save_load_roundtrip(tmp_path):
    witness = construct_witness(1, 1.5)
    path = tmp_path / "witness.txt"
    witness.save(path)
    again = CycleWitness.load(path)
    assert np.array_equal(again.points.points, witness.points.points)
    assert again.r == witness.r and again.R == witness.R
    assert again.theta == witness.theta and again.k == witness.k


def test_witness_file_is_a_header_over_the_cloud_format(tmp_path):
    witness = construct_witness(1, 1.5)
    path = tmp_path / "witness.txt"
    witness.save(path)
    witness.points.save(tmp_path / "cloud.txt")
    head, body = path.read_text().split("\n", 1)
    assert head == (f"{witness.k} {witness.theta!r} {witness.r!r} {witness.R!r} "
                    f"{witness.verified_rank}")
    assert body == (tmp_path / "cloud.txt").read_text()
    path.write_text(path.read_text() + "0.5 0.5 0.5\n")
    with pytest.raises(ValueError, match="header promised"):
        CycleWitness.load(path)


def test_witness_load_rejects_tampered_radius(tmp_path):
    witness = construct_witness(1, 1.5)
    path = tmp_path / "witness.txt"
    witness.save(path)
    head, rest = path.read_text().split("\n", 1)
    k_s, theta_s, r_s, big_r_s, rank_s = head.split()
    bad_r = repr(float(r_s) * 10.0)
    bad_big_r = repr(float(r_s) * 10.0 * float(theta_s))
    path.write_text(f"{k_s} {theta_s} {bad_r} {bad_big_r} {rank_s}\n" + rest)
    with pytest.raises(ValueError):
        CycleWitness.load(path)


def test_search_finds_triangle_at_theta_one():
    witness = search_m(2, 1, 1.0, 3, 2000, stream(7))
    assert witness is not None
    assert len(witness.points) == 3 and witness.points.dim == 2
    assert witness.R == pytest.approx(witness.theta * witness.r)
    assert witness.verify() >= 1


def test_search_on_two_points_finds_nothing():
    assert search_m(2, 1, 1.1, 2, 300, stream(2)) is None


def test_search_triangles_never_reach_fig_one_theta():
    # max death/birth over triangles is 2/sqrt(3) ~ 1.1547 < 1.4
    assert search_m(2, 1, 1.4, 3, 50_000, stream(7)) is None


def test_refinement_finds_the_four_point_witness():
    witness = search_m(2, 1, 1.4, 4, 8192, stream(7))
    assert witness is not None
    assert len(witness.points) == 4
    assert witness.verify() >= 1
    # Uniform sampling alone misses the near-square basin at this budget.
    assert search_m(2, 1, 1.4, 4, 4096, stream(7), refine=False) is None


def _scalar_search(d: int, k: int, theta: float, p: int, trials: int,
                   rng: np.random.Generator, score=None) -> CycleWitness | None:
    """`search_m`'s batch loop with every configuration scored alone, by
    `_config_ratio` unless another `score(points)` is given."""
    from scipy.optimize import minimize

    if score is None:
        def score(points: np.ndarray) -> float:
            return _config_ratio(points, k, GF2)

    done = 0
    while done < trials:
        count = min(4096, trials - done)
        configs = rng.random((count, p, d))
        ratios = np.array([score(config) for config in configs])
        for i in np.flatnonzero(ratios > theta):
            witness = _witness_from_config(configs[i], d, k, theta, GF2)
            if witness is not None:
                return witness
        start = configs[int(ratios.argmax())].reshape(-1)
        result = minimize(lambda x: -score(x.reshape(p, d)),
                          start, method="Nelder-Mead",
                          options={"maxfev": 400, "xatol": 1e-4, "fatol": 1e-6})
        if -result.fun > theta:
            witness = _witness_from_config(result.x.reshape(p, d), d, k, theta, GF2)
            if witness is not None:
                return witness
        done += count
    return None


@pytest.mark.parametrize("d, theta, p, trials, path", [
    (2, 1.2, 4, 65_536, (0, 4, 0)),  # the benchmark's 4-point search: first batch
    (2, 1.4, 4, 8192, (7,)),  # found only by the refinement
    (2, 1.3, 5, 8192, (5, 5)),
])
def test_batched_search_returns_the_scalar_witness(d, theta, p, trials, path):
    batched = search_m(d, 1, theta, p, trials, stream(*path))
    scalar = _scalar_search(d, 1, theta, p, trials, stream(*path))
    assert batched is not None and scalar is not None
    assert batched.points.points.tobytes() == scalar.points.points.tobytes()
    assert (batched.r, batched.R, batched.verified_rank) == (scalar.r, scalar.R,
                                                             scalar.verified_rank)


def test_highest_bit_survives_rounding_past_a_power_of_two():
    # 2**b - 1 with b > 53 bits converts to the float 2**b.
    bits = np.arange(1, 63)
    ones = (np.int64(1) << bits) - 1
    assert np.array_equal(_highest_bit(ones), bits - 1)
    assert np.array_equal(_highest_bit(np.int64(1) << bits), bits)


def _assert_batch_ratios_exact(configs: np.ndarray) -> None:
    scalar = np.array([_config_ratio(config, 1, GF2) for config in configs])
    batched = _batch_ratios(configs)
    assert batched.dtype == np.float64 and batched.shape == scalar.shape
    mismatch = np.flatnonzero(batched != scalar)
    assert len(mismatch) == 0, (configs[mismatch[0]].tolist(), batched[mismatch[0]],
                                scalar[mismatch[0]])


def test_batch_ratios_bit_equal_to_config_ratio():
    rng = np.random.default_rng(61)
    for count, p, d in ((20_000, 4, 2), (5000, 5, 2), (5000, 6, 2), (5000, 4, 3),
                        (200, 11, 2)):
        _assert_batch_ratios_exact(rng.random((count, p, d)))
    # Dyadic lattice: exact ties between edge values, and right angles.
    lattice = np.array([(i, j) for i in range(5) for j in range(5)], dtype=np.float64) / 8.0
    for p in (4, 5, 6):
        subsets = np.array([rng.choice(len(lattice), p, replace=False) for _ in range(1500)])
        _assert_batch_ratios_exact(lattice[subsets])
        # With replacement: duplicated points, edges of value 0.
        _assert_batch_ratios_exact(lattice[rng.integers(0, len(lattice), (500, p))])
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)],
                    dtype=np.float64) / 4.0
    _assert_batch_ratios_exact(cube[np.array([rng.choice(27, 6, replace=False)
                                              for _ in range(500)])])
    # Rotated rectangles: their right triangles die at the diagonal, whose edge
    # value and Thales radius round apart in the last bit.
    corner, side = rng.random((2000, 1, 2)), rng.random((2000, 1, 2)) - 0.5
    turned = rng.uniform(0.5, 1.0, (2000, 1, 1)) * side[..., ::-1] * [-1.0, 1.0]
    _assert_batch_ratios_exact(np.concatenate(
        [corner, corner + side, corner + side + turned, corner + turned], axis=1))
    # All points equal (diameter 0), and points exactly on a line.
    _assert_batch_ratios_exact(np.full((20, 5, 2), 0.375))
    t = rng.random((500, 5, 1))
    _assert_batch_ratios_exact(np.concatenate([t, 2.0 * t], axis=2))
    _assert_batch_ratios_exact(np.concatenate([t, 2.0 * t, -4.0 * t], axis=2))
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert _batch_ratios(square[None])[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_search_validation():
    with pytest.raises(ValueError):
        search_m(2, 1, 0.9, 3, 100, stream(1))
    with pytest.raises(ValueError):
        search_m(2, 1, 1.1, 3, 0, stream(1))
    with pytest.raises(ValueError):
        search_m(0, 1, 1.1, 3, 100, stream(1))


def test_bracket_m_reports_upper_and_lower():
    bracket = bracket_m(2, 1, 1.0, 400, stream(7))
    assert bracket is not None
    assert bracket.upper == 3 and bracket.lower_searched == 2
    assert bracket.witness is not None and len(bracket.witness.points) == 3
    assert bracket_m(2, 1, 1.4, 10, stream(1), max_arity=2) is None


def test_mbracket_validation():
    with pytest.raises(ValueError):
        MBracket(theta=1.4, k=1, d=2, upper=2, lower_searched=1, trials_per_arity=10)
    with pytest.raises(ValueError):
        MBracket(theta=1.4, k=1, d=2, upper=4, lower_searched=4, trials_per_arity=10)


def _diagram_ratio(points: np.ndarray) -> float:
    """Reduction-based death/birth, independent of the analytic shortcut."""
    cloud = PointCloud(2, points)
    diameter = cloud.diameter()
    if diameter == 0.0:
        return 1.0
    diagram = compute_persistence(build_cech_filtration(cloud, diameter, 2))
    best = 1.0
    for birth, death in diagram.in_dimension(1):
        if birth > 0.0 and math.isfinite(death):
            best = max(best, death / birth)
    return best


def test_triangle_ratio_shortcut_matches_reduction():
    rng = np.random.default_rng(29)
    configs = rng.random((120, 3, 2))
    analytic = _triangle_persistence_ratios(configs)
    for i in range(configs.shape[0]):
        assert analytic[i] == pytest.approx(_diagram_ratio(configs[i]), rel=1e-9)
    equilateral = np.array([[(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]])
    assert _triangle_persistence_ratios(equilateral)[0] == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12)


def _assert_triangle_ratio_exact(configs: np.ndarray) -> None:
    vectorised = _triangle_persistence_ratios(configs)
    scalar = np.array([_triangle_ratio(config) for config in configs])
    mismatch = np.flatnonzero(scalar != vectorised)
    assert len(mismatch) == 0, (configs[mismatch[0]].tolist(), scalar[mismatch[0]],
                                vectorised[mismatch[0]])


def test_triangle_ratio_bit_equal_to_vectorised_form():
    rng = np.random.default_rng(67)
    for d in range(2, 8):
        _assert_triangle_ratio_exact(rng.random((100_000, 3, d)))
    equilateral = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    right = np.array([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    assert _triangle_ratio(equilateral) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert _triangle_ratio(right) == 1.0
    # Rotated and scaled equilateral and right triangles.
    turn = rng.uniform(0.0, 2.0 * math.pi, 2000)
    rotation = np.stack([np.cos(turn), -np.sin(turn), np.sin(turn), np.cos(turn)],
                        axis=1).reshape(-1, 2, 2)
    for shape in (equilateral, right):
        placed = (shape @ rotation.transpose(0, 2, 1)) * rng.uniform(0.01, 100.0, (2000, 1, 1))
        _assert_triangle_ratio_exact(placed + rng.random((2000, 1, 2)))
    # Every triple of a dyadic lattice: right triangles whose longest side
    # ties the other two exactly, and collinear triples.
    lattice = np.array([(i, j) for i in range(4) for j in range(4)], dtype=np.float64) / 8.0
    triples = lattice[np.array(list(combinations(range(len(lattice)), 3)))]
    _assert_triangle_ratio_exact(triples)
    legs2 = np.sort(((triples - np.roll(triples, 1, axis=1)) ** 2).sum(axis=2), axis=1)
    ties = legs2[:, 0] + legs2[:, 1] == legs2[:, 2]
    assert ties.sum() > 0 and np.all(_triangle_persistence_ratios(triples[ties]) == 1.0)
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)],
                    dtype=np.float64) / 4.0
    _assert_triangle_ratio_exact(cube[rng.integers(0, 27, (2000, 3))])  # with repeats
    # All points equal, and points exactly on a line.
    _assert_triangle_ratio_exact(np.full((20, 3, 2), 0.375))
    t = rng.random((2000, 3, 1))
    _assert_triangle_ratio_exact(np.concatenate([t, 2.0 * t], axis=2))
    _assert_triangle_ratio_exact(np.concatenate([t, 2.0 * t, -4.0 * t], axis=2))


def test_three_point_search_returns_the_vectorised_witness():
    # Criterion 7's 3-point search, with the refinement scoring each triangle
    # through the vectorised form as a batch of one.
    witness = search_m(2, 1, 1.0, 3, 10_000, stream(7))
    replay = _scalar_search(2, 1, 1.0, 3, 10_000, stream(7),
                            lambda points: float(_triangle_persistence_ratios(points[None])[0]))
    assert witness is not None and replay is not None
    assert witness.points.points.tobytes() == replay.points.points.tobytes()
    assert (witness.r, witness.R, witness.verified_rank) == (replay.r, replay.R,
                                                             replay.verified_rank)
    assert witness.r == 0.5083865811071288


def test_upper_bound_constant_values():
    assert upper_bound_constant(3, 1, 3) == 3
    assert upper_bound_constant(4, 1, 4) == 6
    assert upper_bound_constant(2, 1, 3) == 0
    assert upper_bound_constant(4, 1, 3) == 18
    with pytest.raises(ValueError):
        upper_bound_constant(0, 1, 3)
    with pytest.raises(ValueError):
        upper_bound_constant(3, -1, 3)
    with pytest.raises(ValueError):
        upper_bound_constant(3, 1, 0)
