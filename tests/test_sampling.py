"""Seeded streams, densities, and Poisson / binomial cloud sampling."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from cechlab.errors import ConfigurationError
from cechlab.sampling import (Density, sample_binomial, sample_in_ball,
                              sample_poisson, stream)


def test_stream_reproducible_and_split():
    a = stream(42, 1, 2).random(5)
    b = stream(42, 1, 2).random(5)
    c = stream(42, 1, 3).random(5)
    d = stream(43, 1, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_density_validation():
    with pytest.raises(ConfigurationError):
        Density.uniform_box([(0.0, 0.0)])
    with pytest.raises(ConfigurationError):
        Density(dim=2, kind="uniform-box", box=((0.0, 1.0),), bound=1.0)
    with pytest.raises(ConfigurationError):
        Density(dim=1, kind="custom-bounded", box=((0.0, 1.0),), bound=1.0)
    with pytest.raises(ConfigurationError):
        Density(dim=1, kind="nope", box=((0.0, 1.0),), bound=1.0)


def test_uniform_density_evaluates():
    f = Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)])
    assert f(np.array([0.0, 0.0])) == pytest.approx(0.25)
    assert f(np.array([2.0, 0.0])) == 0.0


def test_binomial_exact_count_and_support():
    f = Density.uniform_box([(2.0, 3.0), (-1.0, 0.0)])
    cloud = sample_binomial(500, f, stream(1, 0))
    assert len(cloud) == 500
    assert cloud.points[:, 0].min() >= 2.0 and cloud.points[:, 0].max() <= 3.0
    assert cloud.points[:, 1].min() >= -1.0 and cloud.points[:, 1].max() <= 0.0
    assert len(sample_binomial(0, f, stream(1, 1))) == 0


def test_poisson_count_distribution():
    lam = 6.0
    f = Density.unit_cube(2)
    rng = stream(8, 0)
    counts = np.array([len(sample_poisson(lam, f, rng)) for _ in range(4000)])
    assert counts.mean() == pytest.approx(lam, abs=4.0 * np.sqrt(lam / 4000))
    # Chi-square goodness of fit against Poisson(6), tail bins pooled.
    edges = list(range(12))
    observed = np.array([np.sum(counts == k) for k in edges] + [np.sum(counts >= 12)])
    expected = np.array([stats.poisson.pmf(k, lam) for k in edges]
                        + [stats.poisson.sf(11, lam)]) * counts.size
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.01


def test_poisson_subbox_counts_scale_with_volume():
    f = Density.uniform_box([(0.0, 2.0), (0.0, 2.0)])
    rng = stream(9, 0)
    hits = 0
    total = 0
    for _ in range(300):
        cloud = sample_poisson(40.0, f, rng)
        total += len(cloud)
        inside = np.all((cloud.points >= 0.0) & (cloud.points <= 1.0), axis=1)
        hits += int(inside.sum())
    # The sub-box holds a quarter of the mass.
    assert hits / total == pytest.approx(0.25, abs=0.02)


def test_poisson_disjoint_regions_uncorrelated():
    f = Density.uniform_box([(0.0, 1.0)])
    rng = stream(10, 0)
    left, right = [], []
    for _ in range(2000):
        cloud = sample_poisson(8.0, f, rng)
        xs = cloud.points[:, 0]
        left.append(np.sum(xs < 0.5))
        right.append(np.sum(xs >= 0.5))
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 0.06


def test_custom_density_rejection_sampling():
    f = Density.custom([(0.0, 1.0)], bound=2.0, evaluator=lambda x: 2.0 * float(x[0]))
    cloud = sample_binomial(20000, f, stream(11, 0))
    # f(x) = 2x on [0,1] has mean 2/3.
    assert cloud.points[:, 0].mean() == pytest.approx(2.0 / 3.0, abs=0.01)


def test_custom_density_bound_violation_detected():
    f = Density.custom([(0.0, 1.0)], bound=0.5, evaluator=lambda x: 2.0 * float(x[0]))
    with pytest.raises(ConfigurationError):
        sample_binomial(50, f, stream(12, 0))


def test_sample_in_ball_radius_and_law():
    rng = stream(13, 0)
    pts = sample_in_ball(5000, 3, 2.0, rng)
    norms = np.linalg.norm(pts, axis=1)
    assert norms.max() < 2.0
    # Uniform in the ball means (|x| / R)^d is uniform on [0, 1].
    u = (norms / 2.0) ** 3
    assert u.mean() == pytest.approx(0.5, abs=0.02)
    assert sample_in_ball(0, 2, 1.0, rng).shape == (0, 2)


def test_negative_counts_rejected():
    f = Density.unit_cube(2)
    with pytest.raises(ValueError):
        sample_binomial(-1, f, stream(1, 0))
    with pytest.raises(ValueError):
        sample_poisson(-2.0, f, stream(1, 0))


def test_custom_density_without_mass_fails_fast():
    f = Density.custom([(0.0, 1.0), (0.0, 1.0)], bound=1.0, evaluator=lambda x: 0.0)
    with pytest.raises(ConfigurationError, match="accepted 0 of"):
        sample_binomial(10, f, stream(14, 0))
    # One acceptance in a hundred still samples: only barren batches in a row count.
    g = Density.custom([(0.0, 1.0)], bound=1.0, evaluator=lambda x: 1.0 if x[0] < 0.01 else 0.0)
    cloud = sample_binomial(30, g, stream(15, 0))
    assert len(cloud) == 30 and cloud.points.max() < 0.01
