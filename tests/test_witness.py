"""Witness construction, perturbation stability, and the arity search."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from cechlab.errors import ConfigurationError
from cechlab.filtration import build_cech_filtration
from cechlab.geometry import PointCloud
from cechlab.persistence import compute_persistence
from cechlab.sampling import stream
from cechlab.witness import (CycleWitness, MBracket,
                             _triangle_persistence_ratios, bracket_m,
                             construct_witness, perturb_and_verify,
                             perturbation_radius, search_m,
                             upper_bound_constant, zeta_indicator)


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


def test_zeta_indicator_scale_invariance_at_powers_of_two():
    witness = construct_witness(1, 1.5)
    pts = witness.points.points
    assert zeta_indicator(pts, witness.r, 1.5, 1) == 1
    for lam in (0.5, 2.0, 8.0):
        assert zeta_indicator(lam * pts, lam * witness.r, 1.5, 1) == 1
    assert zeta_indicator(PointCloud(3, pts), witness.r, 1.5, 1) == 1
    # Far past the death radius nothing persists.
    assert zeta_indicator(pts, 2.0 * witness.R, 1.5, 1) == 0


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
