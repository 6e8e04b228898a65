"""Witness construction, perturbation stability, and the arity search."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import cechlab
from cechlab import filtration, geometry, persistence
from cechlab.errors import ConfigurationError
from cechlab.filtration import build_cech_filtration
from cechlab.geometry import PointCloud
from cechlab.persistence import GF2, FieldSpec, compute_persistence, persistent_betti
from cechlab.sampling import sample_in_ball, stream
from cechlab.witness import (CycleWitness, MBracket, _batch_ratios,
                             _best_intervals, _highest_bit,
                             _nelder_mead, _stack_chunk, _triangle_persistence_ratios,
                             _witness_from_config, bracket_m,
                             construct_witness, perturb_and_verify,
                             perturbation_radius, search_m)


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


def test_perturb_and_verify_is_the_per_trial_loop(monkeypatch):
    # The copies are drawn one after another and ranked in batches; a small
    # batch bound makes several batches, and a large delta_scale makes some
    # copies lose their cycle.
    witness = construct_witness(1, 1.5)
    n, d = witness.points.points.shape
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 7 * n)
    delta = perturbation_radius(witness.R, witness.r, witness.theta)
    for scale in (1.0, 12.0):
        rng = stream(29)
        fraction = perturb_and_verify(witness, rng, 30, delta_scale=scale)
        again = stream(29)
        kept = [persistent_betti(PointCloud(d, witness.points.points
                                            + sample_in_ball(n, d, delta * scale, again)),
                                 witness.r + delta, witness.theta, witness.k) >= 1
                for _ in range(30)]
        assert fraction == sum(kept) / 30
        assert rng.random() == again.random()
    assert 0 < sum(kept) < 30


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


def _ratio_alone(config: np.ndarray, k: int, field: FieldSpec) -> float:
    """`search_m`'s score of one configuration, scored alone (a batch of one):
    triangles in closed form, anything else by `_best_intervals`; 1.0 when
    no pair counts."""
    if k == 1 and len(config) == 3:
        return float(_triangle_persistence_ratios(config[None])[0])
    births, deaths = _best_intervals(config[None], k, field)
    return 1.0 if math.isnan(births[0]) else float(deaths[0] / births[0])


def _scalar_search(d: int, k: int, theta: float, p: int, trials: int,
                   rng: np.random.Generator, field: FieldSpec = GF2) -> CycleWitness | None:
    """`search_m`'s batch loop with every configuration scored alone
    (`_ratio_alone`), and each batch's start refined by scipy as it comes."""
    from scipy.optimize import minimize

    done = 0
    while done < trials:
        count = min(4096, trials - done)
        configs = rng.random((count, p, d))
        ratios = np.array([_ratio_alone(config, k, field) for config in configs])
        for i in np.flatnonzero(ratios > theta):
            witness = _witness_from_config(configs[i], d, k, theta, field)
            if witness is not None:
                return witness
        start = configs[int(ratios.argmax())].reshape(-1)
        result = minimize(lambda x: -_ratio_alone(x.reshape(p, d), k, field),
                          start, method="Nelder-Mead", options=_NELDER_MEAD)
        if -result.fun > theta:
            witness = _witness_from_config(result.x.reshape(p, d), d, k, theta, field)
            if witness is not None:
                return witness
        done += count
    return None


_NELDER_MEAD = {"maxfev": 400, "xatol": 1e-4, "fatol": 1e-6}
# Largest death/birth of a triangle: the equilateral one's.
_TRIANGLE_TOP = 2.0 / math.sqrt(3.0)
# The triangle cases below by path: the batches drawn when the search stops.
_TRIANGLE_STOPS = {(2, 3): 4, (3, 3): 2, (5, 3): 6, (1, 3): 1}
# The cases below that are not k = 1 over GF(2), by path: (k, field). They
# score every batch and every refinement step as a stack (`_best_intervals`).
_STACKED_SEARCHES = {(9, 1): (1, FieldSpec(3)), (11, 2): (2, GF2), (11, 3): (2, GF2),
                     (9, 2, 0): (1, FieldSpec(3)), (11, 4, 5): (2, GF2)}


@pytest.mark.parametrize("d, theta, p, trials, path", [
    (2, 1.2, 4, 65_536, (0, 4, 0)),  # the benchmark's 4-point search: first batch
    (2, 1.4, 4, 8192, (7,)),  # found only by the refinement
    (2, 1.3, 5, 8192, (5, 5)),
    # Triangles: the search refines its batches' starts together.
    (2, 1.2, 3, 3 * 4096 + 100, (2, 3)),  # empty
    (2, _TRIANGLE_TOP - 6e-7, 3, 6 * 4096, (3, 3)),  # the second batch's refinement
    (2, _TRIANGLE_TOP - 7e-7, 3, 6 * 4096, (5, 3)),  # the sixth batch's refinement
    # The second batch holds sampled candidates, so the first batch's start is
    # refined before they are verified, and its witness comes first.
    (2, _TRIANGLE_TOP - 5e-3, 3, 4 * 4096, (1, 3)),
    # Found only by the refinement: GF(3) on 5 points, and k = 2 in d = 3 on 4.
    (2, 1.4, 5, 8192, (9, 1)),
    (3, 1.055, 4, 8192, (11, 2)),
    (3, 1.07, 4, 3000, (11, 3)),  # empty: above the regular tetrahedron's sqrt(9/8)
    # The first batch's first hit lies past the first scored chunk: at index
    # 1538 of _batch_ratios' chunks of 1024, 1078 of the GF(3) 5-point
    # stacks of 409 and 880 of the k = 2 4-point stacks of 682.
    (2, 1.3, 4, 4096, (4, 1, 6)),
    (2, 1.3, 5, 4096, (9, 2, 0)),
    (3, 1.04, 4, 4096, (11, 4, 5)),
])
def test_batched_search_returns_the_scalar_witness(d, theta, p, trials, path):
    k, field = _STACKED_SEARCHES.get(path, (1, GF2))
    rng, replay_rng = stream(*path), stream(*path)
    batched = search_m(d, k, theta, p, trials, rng, field_spec=field)
    scalar = _scalar_search(d, k, theta, p, trials, replay_rng, field)
    after = rng.random(8).tobytes()
    assert after == replay_rng.random(8).tobytes()
    if p == 3:
        # The generator stands after the draw of the batch the search stopped at.
        position, left = stream(*path), trials
        for _ in range(_TRIANGLE_STOPS[path]):
            position.random((min(4096, left), p, d))
            left -= 4096
        assert after == position.random(8).tobytes()
    if path in ((2, 3), (11, 3)):
        assert batched is None and scalar is None
        return
    assert batched is not None and scalar is not None
    assert batched.points.points.tobytes() == scalar.points.points.tobytes()
    assert (batched.r, batched.R, batched.verified_rank) == (scalar.r, scalar.R,
                                                             scalar.verified_rank)


def _assert_nelder_mead_is_scipys(objective, starts: np.ndarray) -> tuple[list, list]:
    """`_nelder_mead` on all starts at once, and on each alone, against scipy
    on each: the same x bits, the same value and as many evaluations.
    Returns scipy's results and, per start, the evaluations of each step."""
    from scipy.optimize import minimize

    x, fun = _nelder_mead(objective, starts)
    results, steps = [], []
    for row, value, start in zip(x, fun, starts):
        evaluated, calls, marks = [0], [0], [0]

        def counted(xs: np.ndarray) -> np.ndarray:
            evaluated[0] += len(xs)
            return objective(xs)

        def scalar(point: np.ndarray) -> float:
            calls[0] += 1
            return float(objective(point[None])[0])

        alone_x, alone_fun = _nelder_mead(counted, start[None])
        result = minimize(scalar, start, method="Nelder-Mead", options=_NELDER_MEAD,
                          callback=lambda intermediate_result: marks.append(calls[0]))
        assert row.tobytes() == alone_x[0].tobytes() == result.x.tobytes()
        assert value == alone_fun[0] == result.fun
        assert evaluated[0] == result.nfev
        results.append(result)
        steps.append(np.diff(marks))
    return results, steps


def _triangle_objective(xs: np.ndarray) -> np.ndarray:
    return -_triangle_persistence_ratios(xs.reshape(len(xs), 3, -1))


def test_nelder_mead_ties_and_zeros_follow_scipy():
    rng = np.random.default_rng(83)
    # Obtuse triangles score exactly -1.0 at every vertex: argsort breaks the ties.
    obtuse = np.array([(0.0, 0.0), (1.0, 0.0), (0.2, 0.1)])
    starts = (obtuse + 0.01 * rng.random((6, 3, 2))).reshape(6, -1)
    results, _ = _assert_nelder_mead_is_scipys(_triangle_objective, starts)
    assert all(result.fun == -1.0 and result.nfev < 400 for result in results)
    # Exact zero coordinates step to 0.00025 instead of by 5%.
    zeros = np.array([[0.0, 0.0, 1.0, 0.0, 0.2, 0.1], [0.0, 0.0, 1.0, 0.0, 0.5, 0.8],
                      [0.0, 0.3, 0.0, 0.0, 0.9, 0.0], np.zeros(6)])
    _assert_nelder_mead_is_scipys(_triangle_objective, zeros)
    # Batch-argmax and uniform starts.
    configs = rng.random((8, 4096, 3, 2))
    best = _triangle_persistence_ratios(configs.reshape(-1, 3, 2)).reshape(8, 4096).argmax(axis=1)
    starts = np.concatenate([configs[np.arange(8), best].reshape(8, -1), rng.random((24, 6))])
    _assert_nelder_mead_is_scipys(_triangle_objective, starts)


def test_nelder_mead_stops_mid_shrink_as_scipy():
    # Obtuse triangles near 1e9: every probe ties at -1.0, so every step is a
    # shrink, and 5% steps of such coordinates take more than 400 evaluations
    # to shrink below xatol. At d = 3 a step costs 2 + 9 evaluations, and the
    # budget runs out inside a shrink, leaving a vertex moved with a stale value.
    rng = np.random.default_rng(89)
    obtuse = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.2, 0.1, 0.0)])
    starts = ((obtuse + 0.01 * rng.random((3, 3, 3))) * np.array([1e9, 3e9, 1e10])[:, None, None])
    results, steps = _assert_nelder_mead_is_scipys(_triangle_objective, starts.reshape(3, -1))
    for result, step in zip(results, steps):
        assert result.nfev == 400 and 2 < step[-1] < 11


def test_nelder_mead_on_config_ratio_follows_scipy():
    rng = stream(97)
    configs = rng.random((2, 4096, 4, 2))
    best = _batch_ratios(configs.reshape(-1, 4, 2)).reshape(2, 4096).argmax(axis=1)
    starts = np.concatenate([configs[np.arange(2), best].reshape(2, -1), rng.random((2, 8))])

    def objective(xs: np.ndarray) -> np.ndarray:  # `search_m`'s, for 4 points
        births, deaths = _best_intervals(xs.reshape(-1, 4, 2), 1, GF2)
        return -np.fmax(deaths / births, 1.0)

    results, _ = _assert_nelder_mead_is_scipys(objective, starts)
    assert any(result.nfev == 400 for result in results)


def test_searching_leaves_scipy_optimize_unimported():
    # scipy's minimize is only the tests' oracle: a search neither pays its
    # import nor keeps it loaded.
    code = ("import sys, cechlab\n"
            "from cechlab.sampling import stream\n"
            "cechlab.search_m(2, 1, 1.2, 3, 5000, stream(0))\n"
            "cechlab.bracket_m(2, 1, 1.4, 200, stream(1), max_arity=4)\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(cechlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout.split() == ["False"]


def test_highest_bit_survives_rounding_past_a_power_of_two():
    # 2**b - 1 with b > 53 bits converts to the float 2**b.
    bits = np.arange(1, 63)
    ones = (np.int64(1) << bits) - 1
    assert np.array_equal(_highest_bit(ones), bits - 1)
    assert np.array_equal(_highest_bit(np.int64(1) << bits), bits)


def _assert_batch_ratios_exact(configs: np.ndarray) -> None:
    """`_batch_ratios` against each configuration scored alone, and against
    the whole stack's `_best_intervals`."""
    scalar = np.array([_ratio_alone(config, 1, GF2) for config in configs])
    births, deaths = _best_intervals(configs, 1, GF2)
    batched = _batch_ratios(configs)
    assert batched.dtype == np.float64 and batched.shape == scalar.shape
    mismatch = np.flatnonzero((batched != scalar) | (np.fmax(deaths / births, 1.0) != scalar))
    assert len(mismatch) == 0, (configs[mismatch[0]].tolist(), batched[mismatch[0]],
                                scalar[mismatch[0]])


def test_batch_ratios_bit_equal_to_each_configuration_alone():
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


def _public_best(config: np.ndarray, k: int, field: FieldSpec) -> tuple[float, float]:
    """The finite degree-k interval of largest death/birth (first in the
    diagram's order) with birth > 0, from the public diagram of the
    configuration's complete complex; NaNs if there is none."""
    cloud = PointCloud(config.shape[1], config)
    diameter = cloud.diameter()
    best = (math.nan, math.nan)
    if diameter == 0.0:
        return best
    complex_ = build_cech_filtration(cloud, diameter, k + 1, force=True)
    for birth, death in compute_persistence(complex_, field).in_dimension(k):
        if birth > 0.0 and math.isfinite(death):
            if math.isnan(best[0]) or death / birth > best[1] / best[0]:
                best = (birth, death)
    return best


def _assert_best_intervals_public(configs: np.ndarray, k: int, field: FieldSpec = GF2) -> None:
    """Each configuration of the stack gets the public diagram's pair, and the
    pair it gets scored alone (a batch of one), bit for bit."""
    births, deaths = _best_intervals(configs, k, field)
    for config, birth, death in zip(configs, births, deaths):
        alone = [end[0] for end in _best_intervals(config[None], k, field)]
        expected = _public_best(config, k, field)
        assert np.array_equal([birth, death], expected, equal_nan=True), (
            config.tolist(), (birth, death), expected)
        assert np.array_equal(alone, expected, equal_nan=True), (config.tolist(), alone)


def test_best_intervals_bit_equal_to_the_public_diagram():
    rng = np.random.default_rng(71)
    gf3 = FieldSpec(3)
    for field in (GF2, gf3):
        _assert_best_intervals_public(rng.random((250, 5, 2)), 1, field)
    _assert_best_intervals_public(rng.random((60, 8, 2)), 1, gf3)
    # Dyadic lattice: ties between values and between ratios; with replacement,
    # duplicated points and edges of value 0.
    lattice = np.array([(i, j) for i in range(5) for j in range(5)], dtype=np.float64) / 8.0
    _assert_best_intervals_public(
        lattice[np.array([rng.choice(25, 5, replace=False) for _ in range(150)])], 1)
    _assert_best_intervals_public(lattice[rng.integers(0, 25, (100, 5))], 1, gf3)
    # All points equal (diameter 0), and points exactly on a line.
    _assert_best_intervals_public(np.full((5, 5, 2), 0.375), 1)
    t = rng.random((40, 5, 1))
    _assert_best_intervals_public(np.concatenate([t, 2.0 * t], axis=2), 1)
    # Fewer than k + 2 points hold no degree-k pair.
    _assert_best_intervals_public(rng.random((10, 2, 2)), 1)
    _assert_best_intervals_public(rng.random((10, 3, 3)), 2)
    # k = 2 in d = 3: the regular octahedron's 2-cycle lives from the
    # circumradius of its faces, sqrt(2/3), to 1.
    octahedron = np.concatenate([np.eye(3), -np.eye(3)])
    births, deaths = _best_intervals(octahedron[None], 2, GF2)
    assert births[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert deaths[0] == pytest.approx(1.0, rel=1e-15)
    cube = np.array([(i, j, k) for i in range(3) for j in range(3) for k in range(3)],
                    dtype=np.float64) / 4.0
    moved = octahedron + 0.05 * rng.random((20, 6, 3))
    for field in (GF2, gf3):
        _assert_best_intervals_public(np.concatenate([octahedron[None], moved]), 2, field)
        _assert_best_intervals_public(rng.random((40, 6, 3)), 2, field)
        _assert_best_intervals_public(
            cube[np.array([rng.choice(27, 6, replace=False) for _ in range(40)])], 2, field)


def test_stacked_scoring_is_bounded_by_simplices(monkeypatch):
    # A search batch goes to the builder and the reducer in calls of at most
    # as many simplices of any one dimension as _SCORE_CHUNK 4-point
    # configurations hold triangles, each call reduced in one pass: not one
    # call per configuration.
    bound = cechlab.witness._SCORE_CHUNK * math.comb(4, 3)
    built: list[int] = []
    reduced: list[int] = []

    def build(*args):
        simplices, facets = filtration._component_filtrations(*args)
        built.append(max(len(values) for _, values in simplices))
        return simplices, facets

    def reduce(simplices, q, *args):
        reduced.append(len(simplices[q][1]))
        return persistence._pivot_rows(simplices, q, *args)

    monkeypatch.setattr(cechlab.witness, "_component_filtrations", build)
    monkeypatch.setattr(cechlab.witness, "_pivot_rows", reduce)
    # theta = 3 is out of reach, so every configuration is scored and none verified.
    assert search_m(2, 1, 3.0, 16, 100, stream(3), refine=False) is None
    per_call = bound // math.comb(16, 3)  # 7 configurations of 560 triangles
    assert built == reduced == [per_call * 560] * (100 // per_call) + [100 % per_call * 560]
    assert max(built) <= bound
    built.clear()
    reduced.clear()
    assert search_m(2, 1, 3.0, 5, 4096, stream(3), refine=False,
                    field_spec=FieldSpec(3)) is None
    assert len(built) == len(reduced) == -(-4096 // (bound // 10)) == 11
    assert built == reduced and sum(built) == 4096 * 10 and max(built) <= bound
    # k = 2 on 4 points: the edges, 6 a configuration, set the budget, not
    # the one tetrahedron.
    built.clear()
    reduced.clear()
    assert search_m(3, 2, 3.0, 4, 4096, stream(3), refine=False) is None
    assert built == [682 * 6] * 6 + [4 * 6] and max(built) <= bound
    assert reduced == [682] * 6 + [4]


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees during call(), after one untraced warm-up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_k2_chunk_peaks_no_higher_than_a_k1_chunk():
    # One search chunk of 4-point configurations in d = 3, as search_m hands
    # it to _best_intervals: k = 2 builds the k = 1 complex plus one
    # tetrahedron a configuration. The peak falls in the shared triangle
    # stage, so the two differ by the few hundred bytes of the tetrahedra's
    # bookkeeping; 1% covers that. A budget on the tetrahedra alone would
    # put all 4096 configurations of a batch in one call, about 6 times
    # the peak.
    configs = stream(5).random((4096, 4, 3))
    peaks = {k: _traced_peak(lambda k=k: _best_intervals(configs[:_stack_chunk(4, k)], k, GF2))
             for k in (1, 2)}
    assert peaks[2] <= 1.01 * peaks[1], peaks


def test_four_point_search_stops_at_the_first_chunk(monkeypatch):
    # The benchmark's 4-point search: its witness lies in the first chunk
    # of its first batch, so the other three chunks are never scored.
    calls: list[int] = []

    def counted(configs):
        calls.append(len(configs))
        return _batch_ratios(configs)

    monkeypatch.setattr(cechlab.witness, "_batch_ratios", counted)
    witness = search_m(2, 1, 1.2, 4, 65_536, stream(0, 4, 0))
    assert witness is not None and calls == [cechlab.witness._SCORE_CHUNK]


def test_search_validation():
    with pytest.raises(ValueError):
        search_m(2, 1, 0.9, 3, 100, stream(1))
    with pytest.raises(ValueError):
        search_m(2, 1, 1.1, 3, 0, stream(1))
    with pytest.raises(ValueError):
        search_m(0, 1, 1.1, 3, 100, stream(1))


def test_bracket_m_is_the_scalar_searches_in_turn():
    # An empty 3-point search, then a 4-point one on the same generator.
    rng, replay_rng = stream(6, 2), stream(6, 2)
    bracket = bracket_m(2, 1, 1.2, 8192, rng, max_arity=4)
    assert _scalar_search(2, 1, 1.2, 3, 8192, replay_rng) is None
    scalar = _scalar_search(2, 1, 1.2, 4, 8192, replay_rng)
    assert bracket is not None and scalar is not None
    assert (bracket.upper, bracket.lower_searched) == (4, 3)
    assert bracket.witness.points.points.tobytes() == scalar.points.points.tobytes()
    assert (bracket.witness.r, bracket.witness.R, bracket.witness.verified_rank) == (
        scalar.r, scalar.R, scalar.verified_rank)
    assert rng.random(8).tobytes() == replay_rng.random(8).tobytes()


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
    """Each triangle scored alone (`_ratio_alone`, a batch of one) gets the
    bits it gets in the whole batch: the lockstep refinement relies on it."""
    vectorised = _triangle_persistence_ratios(configs)
    alone = np.array([_ratio_alone(config, 1, GF2) for config in configs])
    mismatch = np.flatnonzero(alone != vectorised)
    assert len(mismatch) == 0, (configs[mismatch[0]].tolist(), alone[mismatch[0]],
                                vectorised[mismatch[0]])


def test_triangle_ratio_bit_equal_to_vectorised_form():
    rng = np.random.default_rng(67)
    for d in range(2, 8):
        _assert_triangle_ratio_exact(rng.random((4000, 3, d)))
    equilateral = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    right = np.array([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    assert _triangle_persistence_ratios(equilateral[None])[0] == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12)
    assert _triangle_persistence_ratios(right[None])[0] == 1.0
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
    # Criterion 7's 3-point search.
    witness = search_m(2, 1, 1.0, 3, 10_000, stream(7))
    replay = _scalar_search(2, 1, 1.0, 3, 10_000, stream(7))
    assert witness is not None and replay is not None
    assert witness.points.points.tobytes() == replay.points.points.tobytes()
    assert (witness.r, witness.R, witness.verified_rank) == (replay.r, replay.R,
                                                             replay.verified_rank)
    assert witness.r == 0.5083865811071288

