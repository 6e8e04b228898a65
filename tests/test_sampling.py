"""Seeded streams, densities, and Poisson / binomial cloud sampling."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from cechlab.errors import ConfigurationError
from cechlab.sampling import (Density, _sample_stack, _stream_keys, _streams, sample_binomial,
                              sample_in_ball, sample_poisson, stream)


def test_stream_reproducible_and_split():
    a = stream(42, 1, 2).random(5)
    b = stream(42, 1, 2).random(5)
    c = stream(42, 1, 3).random(5)
    d = stream(43, 1, 2).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_batch_keys_are_seed_sequence_keys():
    # The batch hash is numpy's SeedSequence bit for bit: seeds of one, two
    # and three words, paths with multi-word entries, and trial numbers
    # across the one-word limit 2**32, computed without drawing anything.
    seeds = [0, 1, 5, 2**32 - 1, 2**32, 2**40 + 7, 2**62 - 3, 2**64 - 1, 2**70 + 3]
    paths = [(), (0,), (3,), (4, 2), (2**33,)]
    ranges = [range(50), range(2**32 - 2, 2**32 + 2), range(2**64 - 2, 2**64)]
    for seed in seeds:
        for path in paths:
            for trials in ranges:
                keys = _stream_keys(seed, path, trials)
                assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
                expected = [np.random.SeedSequence(entropy=seed, spawn_key=(*path, t))
                            .generate_state(2, np.uint64) for t in trials]
                assert keys.tolist() == np.array(expected).tolist(), (seed, path, trials)
    assert _stream_keys(3, (1,), range(0)).shape == (0, 2)


def test_batch_streams_draw_what_stream_draws():
    # One generator serves the whole range, reset before each trial; every
    # kind of draw, including the 32-bit ones Philox buffers, is stream()'s.
    def draws(rng):
        return (rng.random(3).tobytes(), int(rng.poisson(4.5)),
                rng.integers(0, 2**32, 5, dtype=np.uint32).tobytes(),
                rng.standard_normal(2).tobytes())

    batch = list(map(draws, _streams(17, (2,), range(5, 45))))
    assert batch == [draws(stream(17, 2, t)) for t in range(5, 45)]
    assert len({id(rng) for rng in _streams(17, (2,), range(4))}) == 1


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


@pytest.mark.parametrize("density", [
    Density.uniform_box([(-1.0, 1.0), (0.0, 0.5)]),
    Density.custom([(-1.0, 1.0), (0.0, 0.5)], bound=2.0,
                   evaluator=lambda x: 1.0 + float(x[0]) if x[1] < 0.4 else 0.0),
], ids=["box", "custom"])
def test_stacked_density_values_are_the_pointwise_values(density):
    # Corners and edges of the box count as inside, as the pointwise test has it.
    points = np.array([[0.0, 0.25], [-1.0, 0.0], [1.0, 0.5], [1.0 + 1e-12, 0.25],
                       [0.3, -1e-300], [-0.7, 0.45], [5.0, 5.0]])
    values = density._values(points)
    assert values == [density(point) for point in points]
    assert all(type(value) is float for value in values)


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


@pytest.mark.parametrize("density", [
    Density.unit_cube(2),
    Density.custom([(0.0, 1.0), (-1.0, 1.0)], bound=2.0,
                   evaluator=lambda x: 2.0 * float(x[0])),
], ids=["unit-square", "custom"])
def test_the_stack_draws_each_cloud_before_it_pulls_the_next_generator(density):
    # The batch form resets one generator when the next trial's is pulled, so
    # a trial's anchors, count and points must all be drawn before that pull.
    events = []

    class Logged:
        def __init__(self, rng, t):
            self.rng, self.t = rng, t

        def __getattr__(self, name):
            def logged(*args, **kwargs):
                events.append((self.t, name))
                return getattr(self.rng, name)(*args, **kwargs)
            return logged

    def pulled():
        for t, rng in enumerate(_streams(42, (0,), range(30))):
            events.append((t, "pull"))
            yield Logged(rng, t)

    _, sizes = _sample_stack(7.5, density, pulled(), anchors=2)
    assert [t for t, _ in events] == sorted(t for t, _ in events)
    pulls = [i for i, (_, name) in enumerate(events) if name == "pull"]
    assert [events[i][0] for i in pulls] == list(range(30))
    for t, (start, end) in enumerate(zip(pulls, pulls[1:] + [len(events)])):
        names = [name for _, name in events[start + 1:end]]
        assert "poisson" in names and "random" in names, (t, names)


def _raw_points(count, density, rng):
    """`count` points of the density drawn with numpy alone: uniform on the box, or by rejection."""
    lows, highs = np.array(density.box).T
    if density.kind == "uniform-box":
        return lows + rng.random((count, density.dim)) * (highs - lows)
    rows = []
    while len(rows) < count:
        proposals = lows + rng.random((1024, density.dim)) * (highs - lows)
        accepts = rng.random(1024) * density.bound
        for point, u in zip(proposals, accepts):
            if u <= density.evaluator(point):
                rows.append(point)
                if len(rows) == count:
                    break
    return np.array(rows).reshape(count, density.dim)


def _per_trial(intensity, density, rngs, anchors=0):
    """The clouds `_sample_stack` draws, one generator at a time, with no cechlab sampling code."""
    clouds = []
    for rng in rngs:
        parts = [_raw_points(anchors, density, rng)]
        if intensity is not None:
            parts.append(_raw_points(int(rng.poisson(intensity)), density, rng))
        clouds.append(np.concatenate(parts))
    return clouds


@pytest.mark.parametrize("density", [
    Density.uniform_box([(-1.0, 2.0), (0.25, 0.75), (3.0, 3.5)]),
    Density.unit_cube(2),
    Density.custom([(0.0, 1.0), (-1.0, 1.0)], bound=2.0,
                   evaluator=lambda x: 2.0 * float(x[0])),
], ids=["box", "unit-square", "custom"])
def test_stacked_draw_is_the_per_trial_draw(density):
    # The stack of one cloud per generator holds, bit for bit, the clouds that
    # plain numpy draws one generator at a time, and leaves every generator
    # where they leave it: intensity 0 and tiny intensities give zero-count
    # trials that draw nothing, anchors come before the Poisson count, and the
    # custom density's rejection loop draws its proposals and acceptances in
    # the same order.
    cases = [(0.0, 0), (0.3, 0), (7.5, 0), (7.5, 2), (None, 3), (0.0, 1)]
    for case, (intensity, anchors) in enumerate(cases):
        # A stream per trial, as experiments draw, and one stream for all, as palm_check does.
        for make in (lambda: [stream(40, case, t) for t in range(60)],
                     lambda: [stream(41, case)] * 60):
            rngs, again = make(), make()
            points, sizes = _sample_stack(intensity, density, rngs, anchors=anchors)
            clouds = _per_trial(intensity, density, again, anchors)
            assert sizes == [len(cloud) for cloud in clouds]
            assert points.shape == (sum(sizes), density.dim) and points.dtype == np.float64
            assert points.tobytes() == np.concatenate(clouds).tobytes()
            assert [rng.random() for rng in dict.fromkeys(rngs)] == \
                [rng.random() for rng in dict.fromkeys(again)]
            # A sample_binomial call for the anchors and a sample_poisson call draw the same.
            rngs, again = make(), make()
            for rng, cloud in zip(rngs, _per_trial(intensity, density, again, anchors)):
                parts = [sample_binomial(anchors, density, rng).points]
                if intensity is not None:
                    parts.append(sample_poisson(intensity, density, rng).points)
                assert np.concatenate(parts).tobytes() == cloud.tobytes()
            assert [rng.random() for rng in dict.fromkeys(rngs)] == \
                [rng.random() for rng in dict.fromkeys(again)]
            if intensity == 0.0 and not anchors:
                assert sizes == [0] * 60
            if intensity == 0.3:
                assert 0 in sizes and max(sizes) > 0
        # The batch form: one generator, reset to each trial's key in turn.
        streams = [stream(40, case, t) for t in range(60)]
        points, sizes = _sample_stack(intensity, density, _streams(40, (case,), range(60)),
                                      anchors=anchors)
        clouds = _per_trial(intensity, density, streams, anchors)
        assert sizes == [len(cloud) for cloud in clouds]
        assert points.tobytes() == np.concatenate(clouds).tobytes()
        for rng, cloud in zip(_streams(40, (case,), range(60)), clouds):
            parts = [sample_binomial(anchors, density, rng).points]
            if intensity is not None:
                parts.append(sample_poisson(intensity, density, rng).points)
            assert np.concatenate(parts).tobytes() == cloud.tobytes()
    with pytest.raises(ValueError):
        _sample_stack(-1.0, density, [stream(1)])
    with pytest.raises(ConfigurationError):
        _sample_stack(1.0, "unit square", [stream(1)])
