"""Scaling experiments, exponent fits, audits, rendering, and the CLI."""

from __future__ import annotations

import json
import math
import os
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import cechlab
from cechlab import cli, experiment, filtration, geometry, properties, sampling
from cechlab.errors import AuditError, ConfigurationError
from cechlab.experiment import (AuditRow, ExperimentSpec, ResultRow, audit_csv, fit_csv,
                                fit_exponent, lower_bound_audit,
                                manifest_payload, predicted_exponent,
                                results_csv, run_experiment, write_manifest)
from cechlab.filtration import build_cech_filtration
from cechlab.geometry import PointCloud
from cechlab.persistence import persistent_betti, persistent_bettis
from cechlab.properties import subset_count, subset_counts, upsilon
from cechlab.render import render_balls
from cechlab.sampling import Density, sample_poisson, stream
from scalar_cech import scalar_build, scalar_persistence

_UNIT = [(0.0, 1.0), (0.0, 1.0)]
_FORK = os.fork


def _small_spec(**overrides) -> ExperimentSpec:
    base = dict(d=2, k=1, theta=1.0, density=Density.uniform_box(_UNIT),
                c=0.4, q=-0.75, n_grid=(8.0, 16.0), trials=4, seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation and the exponent fit
# ---------------------------------------------------------------------------


def test_predicted_exponent_values():
    assert predicted_exponent(2, -0.6, 3) == pytest.approx(0.6, abs=1e-12)
    assert predicted_exponent(2, -2.0 / 3.0, 4) == pytest.approx(0.0, abs=1e-12)
    assert predicted_exponent(3, -0.5, 2) == pytest.approx(0.5, abs=1e-12)


def test_spec_guards():
    with pytest.raises(ConfigurationError):
        _small_spec(q=-0.5)  # not subcritical for d=2
    with pytest.raises(ConfigurationError):
        _small_spec(theta=0.9)
    with pytest.raises(ConfigurationError):
        _small_spec(d=3)  # density dimension mismatch
    with pytest.raises(ConfigurationError):
        _small_spec(n_grid=())
    with pytest.raises(ConfigurationError):
        _small_spec(n_grid=(16.0, 8.0))
    with pytest.raises(ConfigurationError):
        _small_spec(trials=0)
    with pytest.raises(ConfigurationError):
        _small_spec(seed=-1)
    with pytest.raises(ConfigurationError):
        _small_spec(max_trials=2)
    with pytest.raises(ConfigurationError):
        _small_spec(target_rel_se=0.0)
    with pytest.raises(ConfigurationError):
        _small_spec(c=-1.0)
    spec = _small_spec()
    assert spec.radius(16.0) == pytest.approx(0.4 * 16.0 ** -0.75)


def test_fit_recovers_exact_power_laws():
    for slope, scale in ((0.6, 2.0), (-1.25, 0.3), (0.0, 5.0)):
        rows = [(n, scale * n ** slope) for n in (10.0, 40.0, 100.0, 400.0, 1000.0)]
        fit = fit_exponent(rows)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.ci_lo <= slope <= fit.ci_hi
        assert fit.ci_hi - fit.ci_lo < 1e-6


def test_fit_guards():
    with pytest.raises(ConfigurationError):
        fit_exponent([(10.0, 1.0), (100.0, 2.0), (1000.0, 3.0)])
    with pytest.raises(ConfigurationError, match="trials"):
        fit_exponent([(10.0, 1.0), (100.0, 0.0), (1000.0, 3.0), (10000.0, 4.0)])
    with pytest.raises(ConfigurationError, match="decade"):
        fit_exponent([(10.0, 1.0), (20.0, 2.0), (40.0, 3.0), (80.0, 4.0)])


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def test_run_experiment_is_bit_reproducible():
    spec = _small_spec()
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert results_csv(a) == results_csv(b)
    assert [row.trials for row in a.rows] == [4, 4]
    assert all(row.se >= 0.0 for row in a.rows)
    assert a.seed == 3


def test_zero_radius_yields_zero_means_and_no_fit():
    spec = _small_spec(c=0.0, n_grid=(5.0, 12.0, 25.0, 60.0))
    result = run_experiment(spec)
    assert all(row.mean_betti == 0.0 for row in result.rows)
    assert result.fit is None
    assert "positive" in result.fit_note
    assert result.predicted is None


def test_predicted_exponent_attached_when_m_given():
    result = run_experiment(_small_spec(), m=3)
    assert result.predicted == pytest.approx(1.0 + (-0.75 * 2 + 1.0) * 2.0)


def test_adaptive_trials_stop_early_and_at_the_cap():
    relaxed = _small_spec(k=0, target_rel_se=10.0, max_trials=64)
    assert [row.trials for row in run_experiment(relaxed).rows] == [4, 4]
    strict = _small_spec(k=0, target_rel_se=1e-9, max_trials=64)
    assert [row.trials for row in run_experiment(strict).rows] == [64, 64]


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def test_audit_passes_and_summarizes(tmp_path):
    spec = _small_spec(n_grid=(6.0, 12.0), trials=30, c=0.35)
    table = lower_bound_audit(spec, m=3, dump_dir=tmp_path)
    assert len(table.rows) == 60
    assert all(row.isolated_cycles <= row.persistent_betti for row in table.rows)
    assert 0.0 <= table.equality_fraction() <= 1.0
    assert table.mean_isolated_cycles() <= table.mean_persistent_betti()
    assert not list(tmp_path.iterdir())  # nothing dumped on success


def test_audit_on_mostly_empty_clouds_counts_equalities(tmp_path):
    spec = _small_spec(n_grid=(0.2, 0.5), trials=25)
    table = lower_bound_audit(spec, m=3, dump_dir=tmp_path)
    assert table.equality_fraction() > 0.5


def test_audit_guards(tmp_path):
    with pytest.raises(ConfigurationError):
        lower_bound_audit(_small_spec(), m=2, dump_dir=tmp_path)
    with pytest.raises(ConfigurationError):
        lower_bound_audit(_small_spec(k=0), m=3, dump_dir=tmp_path)


def test_tiny_clouds_share_k_d_trees_and_large_ones_keep_their_own(monkeypatch, tmp_path):
    # The criterion-6 audit at m = 3 (500 clouds of about 20 points, the
    # benchmark's audit-6 spec) runs one neighbour pass over its batch, for the
    # sep labels, the locality pairs and the ranks. Grouped, it builds
    # O(points / group size) k-d trees, not one per cloud. A
    # figure-1 cloud at n = 1e3 still builds exactly one tree, on its own
    # 2-d coordinates, alone or in a batch.
    trees: list[np.ndarray] = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            trees.append(np.array(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", CountingTree)
    _on_cores(monkeypatch, {0})  # one process, so every tree is counted here
    spec = ExperimentSpec(d=2, k=1, theta=1.0, density=Density.unit_cube(2), c=0.6, q=-0.6,
                          n_grid=(20.0,), trials=500, seed=16002)
    table = lower_bound_audit(spec, m=3, dump_dir=tmp_path)
    assert sum(row.isolated_cycles for row in table.rows) > 0
    rows = sum(len(tree) for tree in trees)
    assert len(trees) <= rows / geometry._GROUP_POINTS + 4
    assert len(trees) < len(table.rows) / 3  # one tree per cloud and pass would be 2000
    assert {tree.shape[1] for tree in trees} == {3}  # a cloud number beside x and y

    box = Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)])
    clouds = [sample_poisson(1e3, box, stream(0, 0, t)) for t in range(3)]
    r = 2.6 * 1e3 ** (-2.0 / 3.0)
    trees.clear()
    persistent_betti(clouds[0], r, 1.4, 1)
    assert len(trees) == 1 and np.array_equal(trees[0], clouds[0].points)
    trees.clear()
    persistent_bettis(clouds, r, 1.4, 1)
    assert len(trees) == 3
    assert all(np.array_equal(tree, cloud.points) for tree, cloud in zip(trees, clouds))


def test_an_audit_batch_makes_one_neighbour_query(monkeypatch, tmp_path):
    # Each batch of the audit is queried once, at the largest cutoff its
    # consumers need; zeta's indicator takes its pairs from its own gaps, and a
    # lone subset_counts call queries once for its labels and locality pairs.
    spec = ExperimentSpec(d=2, k=1, theta=1.0, density=Density.unit_cube(2), c=0.6, q=-0.6,
                          n_grid=(20.0, 30.0), trials=60, seed=16006)
    expected = []
    for i, n in enumerate(spec.n_grid):
        r = spec.radius(n)
        h = upsilon(r, 3, spec.theta, spec.k)
        for t in range(spec.trials):
            cloud = sample_poisson(n, spec.density, stream(spec.seed, i, t))
            expected.append((subset_count(h, cloud), persistent_betti(cloud, r, spec.theta, 1)))
    assert any(count for count, _ in expected)
    queries: list[int] = []

    def counting(points, sizes, cutoff):
        queries.append(len(sizes))
        return geometry._near_pairs(points, sizes, cutoff)

    for module in (experiment, filtration, properties):
        monkeypatch.setattr(module, "_near_pairs", counting)
    _on_cores(monkeypatch, {0})
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 200)  # batches of 10 and of 6 trials
    table = lower_bound_audit(spec, m=3, dump_dir=tmp_path)
    assert [(row.isolated_cycles, row.persistent_betti) for row in table.rows] == expected
    assert queries == [10] * 6 + [6] * 10
    queries.clear()
    clouds = [sample_poisson(20.0, spec.density, stream(5, t)) for t in range(30)]
    counts = subset_counts(upsilon(spec.radius(20.0), 3, 1.0, 1), clouds)
    assert queries == [30]
    assert counts.tolist() == [subset_count(upsilon(spec.radius(20.0), 3, 1.0, 1), cloud)
                               for cloud in clouds]


@pytest.mark.parametrize("d, k, m, theta", [(2, 1, 3, 1.0), (2, 1, 3, 1.1), (2, 1, 4, 1.4),
                                           (3, 2, 4, 1.0), (3, 2, 5, 1.05)])
def test_an_audit_queries_at_its_cycles_locality(monkeypatch, tmp_path, d, k, m, theta):
    # A cycle on m = k+2 points needs every pair within 2r, so the one query of
    # each batch runs at the isolation cutoff 2*theta*r; above k+2 points it
    # runs at zeta's 2*theta*r*m.
    spec = ExperimentSpec(d=d, k=k, theta=theta, density=Density.unit_cube(d), c=0.6,
                          q=-0.6 if d == 2 else -0.5, n_grid=(20.0,), trials=30, seed=16010)
    cutoffs: list[tuple[int, float]] = []

    def spying(points, sizes, cutoff):
        cutoffs.append((len(sizes), cutoff))
        return geometry._near_pairs(points, sizes, cutoff)

    for module in (experiment, filtration, properties):
        monkeypatch.setattr(module, "_near_pairs", spying)
    _on_cores(monkeypatch, {0})
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 200)  # batches of 10 trials
    lower_bound_audit(spec, m=m, dump_dir=tmp_path)
    r = spec.radius(20.0)
    expected = 2.0 * theta * r * (1 if m == k + 2 else m)
    assert [size for size, _ in cutoffs] == [10, 10, 10]
    assert all(cutoff == pytest.approx(expected, rel=1e-8) for _, cutoff in cutoffs), cutoffs


def test_trial_batches_draw_through_one_philox_each(monkeypatch, tmp_path):
    # A batch of trials derives its streams' keys at once and draws through one
    # Philox; no trial builds a stream of its own.
    experiment_spec = _small_spec(k=1, n_grid=(20.0, 40.0), trials=23, c=0.6, q=-0.6)
    audit_spec = _small_spec(n_grid=(6.0, 12.0), trials=30, c=0.35)
    runs = [(experiment_spec, lambda: results_csv(run_experiment(experiment_spec, m=3))),
            (audit_spec, lambda: audit_csv(lower_bound_audit(audit_spec, m=3,
                                                             dump_dir=tmp_path)))]
    expected = [call() for _, call in runs]
    streams: list[tuple] = []
    philox: list[tuple] = []
    real_philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        philox.append(args)
        return real_philox(*args, **kwargs)

    for module in (cechlab, sampling, experiment, properties):
        if hasattr(module, "stream"):
            monkeypatch.setattr(module, "stream", lambda *path: streams.append(path))
    monkeypatch.setattr(np.random, "Philox", counting_philox)
    _on_cores(monkeypatch, {0})  # one process, so every Philox is counted here
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 100)
    for (spec, call), output in zip(runs, expected):
        philox.clear()
        assert call() == output
        batches = sum(len(list(geometry._batch_sizes(spec.trials, n))) for n in spec.n_grid)
        assert len(philox) == batches > len(spec.n_grid)
    assert streams == []


# ---------------------------------------------------------------------------
# Trials split over the usable cores
# ---------------------------------------------------------------------------


def _on_cores(monkeypatch, cores: set[int]) -> list[int]:
    """Pretend the process may run on `cores`; returns the list of forked pids."""
    forked: list[int] = []

    def counting_fork() -> int:
        pid = _FORK()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def _outcome(call) -> tuple[str, str]:
    """(type name, message) of the exception `call()` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value).__name__, str(info.value)


def _splits(monkeypatch):
    """Run on 1, 2 and 3 cores with whole chunks as batches, then on 2 with batches of one.

    Yields the label of each setting and the list of forked pids.
    """
    for cores in ({0}, {0, 1}, {0, 1, 2}):
        yield len(cores), _on_cores(monkeypatch, cores)
    monkeypatch.setattr(geometry, "_BATCH_POINTS", 0)
    yield "one", _on_cores(monkeypatch, {0, 1})


def test_split_experiment_is_byte_identical_to_serial(monkeypatch):
    specs = [_small_spec(k=0, n_grid=(5.0, 10.0, 20.0, 50.0), trials=6),
             _small_spec(k=0, target_rel_se=0.02, max_trials=40),  # adaptive batches
             _small_spec(k=1, n_grid=(20.0, 40.0), trials=9, c=0.6, q=-0.6)]
    outputs = {}
    for label, forked in _splits(monkeypatch):
        results = [run_experiment(spec, m=3) for spec in specs]
        outputs[label] = [(results_csv(r), fit_csv(r)) for r in results]
        assert bool(forked) == (label != 1)
    assert outputs[1] == outputs[2] == outputs[3] == outputs["one"]
    assert [line.split(",")[-1] for line in outputs[1][1][0].splitlines()[1:]] == ["40", "40"]
    assert "nan" not in outputs[1][0][1]
    assert any(float(line.split(",")[2]) > 0.0 for line in outputs[1][2][0].splitlines()[1:])


def test_split_audit_is_byte_identical_to_serial(monkeypatch, tmp_path):
    spec = _small_spec(n_grid=(6.0, 12.0), trials=30, c=0.35)
    tables = {}
    for label, forked in _splits(monkeypatch):
        tables[label] = audit_csv(lower_bound_audit(spec, m=3, dump_dir=tmp_path))
        assert bool(forked) == (label != 1)
    assert tables[1] == tables[2] == tables[3] == tables["one"]
    assert not list(tmp_path.iterdir())


def test_rows_pickle_through_the_split(monkeypatch):
    # Rows are slotted, so a table of them takes about half the memory; they
    # must still come back from a forked child intact.
    row = AuditRow(n=20.0, trial=3, isolated_cycles=1, persistent_betti=2)
    assert not hasattr(row, "__dict__")
    assert not hasattr(ResultRow(n=1.0, r=0.1, mean_betti=0.5, se=0.1, trials=4), "__dict__")

    def rows(batch: range) -> list:
        return [(AuditRow(n=20.0, trial=t, isolated_cycles=t % 2, persistent_betti=t),
                 ResultRow(n=float(t), r=0.1, mean_betti=t / 2, se=0.0, trials=t))
                for t in batch]

    forked = _on_cores(monkeypatch, {0, 1})
    assert experiment._map_trials(rows, range(7), 20.0) == rows(range(7))
    assert len(forked) == 1


def test_a_batch_that_raises_only_as_a_whole_gives_its_trials_run_alone(monkeypatch):
    # As the candidate cap would if it counted a batch rather than a cloud.
    def squares(batch: range) -> list[int]:
        if len(batch) > 1:
            raise ConfigurationError("batch too large")
        return [t * t for t in batch]

    for cores in ({0}, {0, 1}):
        _on_cores(monkeypatch, cores)
        assert experiment._map_trials(squares, range(9), 1e4) == [t * t for t in range(9)]


def test_no_fork_while_other_threads_run(monkeypatch):
    forked = _on_cores(monkeypatch, {0, 1})
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        result = run_experiment(_small_spec())
    finally:
        release.set()
        waiter.join(timeout=30.0)
    assert not waiter.is_alive()
    assert forked == []
    monkeypatch.undo()
    assert results_csv(result) == results_csv(run_experiment(_small_spec()))


@pytest.mark.parametrize("seed, first", [(12, 4), (26, 0)])
def test_a_raising_trial_raises_as_in_the_serial_loop(monkeypatch, seed, first):
    # A density that evaluates negative raises ConfigurationError naming the
    # value at the trial's first proposal, so each trial with a point has its
    # own message. With 8 trials on 2 cores, seed 12 draws no point in the
    # caller's chunk (trials 0-3) and a point in each of trials 4-7 (the
    # child's); seed 26 fails in the caller's chunk while the child runs.
    density = Density.custom(_UNIT, 1.0, lambda point: -1.0 - float(point[0]))
    spec = _small_spec(density=density, n_grid=(0.3,), trials=8, seed=seed)
    counts = [int(stream(seed, 0, t).poisson(0.3)) for t in range(8)]
    assert min(t for t, count in enumerate(counts) if count) == first
    assert sum(count > 0 for count in counts[4:]) >= 2
    outcomes = {}
    for cores in ({0}, {0, 1}):
        forked = _on_cores(monkeypatch, cores)
        outcomes[len(cores)] = _outcome(lambda: run_experiment(spec))
        assert len(forked) == len(cores) - 1
    assert outcomes[1] == outcomes[2]
    assert outcomes[1][0] == "ConfigurationError"


@pytest.mark.parametrize("planted", [(5, 7), (3, 5)])
def test_an_audit_violation_dumps_and_raises_as_serial(monkeypatch, tmp_path, planted):
    # The planted trials of 8 get an isolated-cycle count above any rank, and
    # only the first may be reported and saved. On 2 cores, (5, 7) both lie in
    # the child's chunk; with (3, 5) the caller's trial 3 is slow, so the
    # child has met trial 5 before the caller raises.
    spec = _small_spec(n_grid=(12.0,), trials=8, c=0.35)
    clouds = {sample_poisson(12.0, spec.density, stream(spec.seed, 0, t)).points.tobytes(): t
              for t in planted}

    def planted_counts(h, points, sizes, near=None):
        starts = np.cumsum(sizes) - sizes
        ts = [clouds.get(points[start:start + size].tobytes())
              for start, size in zip(starts, sizes)]
        if 3 in ts:
            time.sleep(0.3)
        return np.array([0 if t is None else 99 for t in ts])

    monkeypatch.setattr(experiment, "_subset_counts", planted_counts)
    outcomes = {}
    for cores in ({0}, {0, 1}):
        forked = _on_cores(monkeypatch, cores)
        run_dir = tmp_path / str(len(cores))
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        outcome = _outcome(lambda: lower_bound_audit(spec, m=3, dump_dir="."))
        dumps = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        outcomes[len(cores)] = outcome, dumps
        assert len(forked) == len(cores) - 1
    assert outcomes[1] == outcomes[2]
    (kind, message), dumps = outcomes[1]
    assert kind == "AuditError" and f"trial {planted[0]};" in message
    assert list(dumps) == [f"audit-violation-n12-trial{planted[0]}.txt"]
    # The dump is the violating cloud, sliced out of its batch's stack.
    sample_poisson(12.0, spec.density, stream(spec.seed, 0, planted[0])).save(tmp_path / "own")
    assert dumps[f"audit-violation-n12-trial{planted[0]}.txt"] == (tmp_path / "own").read_bytes()


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def test_csv_formats():
    result = run_experiment(_small_spec())
    lines = results_csv(result).splitlines()
    assert lines[0] == "n,r,mean_betti,se,trials"
    assert len(lines) == 3
    assert lines[1].startswith("8,")
    fit_lines = fit_csv(result).splitlines()
    assert fit_lines[0] == "slope,ci_lo,ci_hi,predicted"
    assert "nan" in fit_lines[1]  # 2-row grid cannot be fitted

    table = lower_bound_audit(_small_spec(trials=2), m=3)
    audit_lines = audit_csv(table).splitlines()
    assert audit_lines[0] == "n,trial,isolated_cycles,persistent_betti"
    assert len(audit_lines) == 5


def test_manifest_is_stable_and_timestamp_free(tmp_path):
    spec = _small_spec()
    payload = manifest_payload("experiment", spec.parameters())
    assert payload["tool"] == "cechlab"
    assert payload["command"] == "experiment"
    assert payload["parameters"]["field"] == 2
    assert set(payload) == {"tool", "version", "python", "numpy", "scipy",
                            "command", "parameters"}
    path = tmp_path / "manifest.json"
    write_manifest(path, "experiment", spec.parameters())
    first = path.read_bytes()
    write_manifest(path, "experiment", spec.parameters())
    assert path.read_bytes() == first
    assert json.loads(first)["parameters"]["n_grid"] == [8.0, 16.0]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _circles(path: Path) -> list[dict]:
    root = ET.parse(path).getroot()
    return [dict(el.attrib) for el in root
            if el.tag.endswith("circle")]


def test_render_empty_cloud_is_valid_svg(tmp_path):
    out = render_balls(PointCloud.from_points([], dim=2), 0.1, 1.5,
                       tmp_path / "empty.svg")
    root = ET.parse(out).getroot()
    assert root.attrib["viewBox"] == "0 0 1 1"
    assert _circles(out) == []


def test_render_draws_light_disks_under_dark_ones(tmp_path):
    cloud = PointCloud.from_points([(0.2, 0.3), (0.7, 0.6)])
    out = render_balls(cloud, 0.05, 1.4, tmp_path / "two.svg",
                       box=((0.0, 1.0), (0.0, 1.0)))
    circles = _circles(out)
    assert len(circles) == 4
    assert [c["fill"] for c in circles] == ["#c5d9ee"] * 2 + ["#2f5f8f"] * 2
    assert circles[0]["r"] == f"{1.4 * 0.05:.6g}"
    assert circles[2]["r"] == f"{0.05:.6g}"
    # The plane's y axis points up: cy = y_lo + y_hi - y.
    assert circles[0]["cy"] == f"{1.0 - 0.3:.6g}"
    assert circles[0]["cx"] == f"{0.2:.6g}"


def test_render_guards(tmp_path):
    flat = PointCloud.from_points([(0.0, 0.0, 0.0)])
    with pytest.raises(ConfigurationError):
        render_balls(flat, 0.1, 1.0, tmp_path / "x.svg")
    plane = PointCloud.from_points([(0.0, 0.0)])
    with pytest.raises(ConfigurationError):
        render_balls(plane, -0.1, 1.0, tmp_path / "x.svg")
    with pytest.raises(ConfigurationError):
        render_balls(plane, 0.1, 0.5, tmp_path / "x.svg")
    with pytest.raises(ConfigurationError):
        render_balls(plane, 0.1, 1.0, tmp_path / "x.svg", box=((0.0, 0.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_sample_then_betti_pipeline(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.txt"
    assert cli.main(["sample", "--n", "40", "--seed", "5",
                     "--box=0,1;0,1", "--out", str(cloud_path)]) == 0
    assert cloud_path.exists()
    assert (tmp_path / "sample-manifest.json").exists()
    assert cli.main(["betti", "--cloud", str(cloud_path), "--r", "0.08",
                     "--k", "1", "--theta", "1.2",
                     "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert int(out.strip().splitlines()[-1]) >= 0


def test_cli_persistence_and_render(tmp_path):
    cloud_path = tmp_path / "cloud.txt"
    cli.main(["sample", "--n", "15", "--seed", "2", "--binomial",
              "--box=0,1;0,1", "--out", str(cloud_path)])
    diagram_path = tmp_path / "diagram.csv"
    assert cli.main(["persistence", "--cloud", str(cloud_path),
                     "--r-max", "0.4", "--out", str(diagram_path)]) == 0
    assert diagram_path.read_text().startswith("dim,birth,death")
    reference_path = tmp_path / "reference.csv"
    scalar_persistence(scalar_build(PointCloud.load(cloud_path), 0.4, 2)).save_csv(reference_path)
    assert diagram_path.read_bytes() == reference_path.read_bytes()
    svg = tmp_path / "balls.svg"
    assert cli.main(["render", "--cloud", str(cloud_path), "--r", "0.05",
                     "--theta", "1.4", "--box=0,1;0,1", "--out", str(svg)]) == 0
    assert len(_circles(svg)) == 30


def test_cli_manifests_record_every_option_that_changes_the_output(tmp_path):
    # Two values of each option give two manifests, so a run can be
    # reproduced from its manifest alone.
    cloud_path = tmp_path / "cloud.txt"
    PointCloud(2, np.random.default_rng(103).random((12, 2))).save(cloud_path)
    zeta = ["--property", "zeta", "--p", "3", "--theta", "1.1"]
    runs = {
        "count": (["--cloud", str(cloud_path), "--r", "0.2"] + zeta,
                  {"--field": ("2", "3")}),
        "mu": (zeta + ["--samples", "20"],
               {"--box": ("0,1;0,1", "0,2;0,1"), "--field": ("2", "3")}),
        "palm": (["--property", "conn", "--r", "0.1", "--n", "10", "--trials", "4"],
                 {"--d": ("2", "3"), "--box": ("0,1;0,1", "0,2;0,1"),
                  "--rhs-trials": ("4", "5"), "--field": ("2", "3")}),
    }
    for command, (base, options) in runs.items():
        for option, values in options.items():
            manifests = []
            for value in values:
                out = tmp_path / f"{command}{option}{value.replace(';', '_')}"
                assert cli.main([command] + base + [option, value,
                                                    "--out-dir", str(out)]) in (0, 2)
                manifests.append((out / f"{command}-manifest.json").read_bytes())
            assert manifests[0] != manifests[1], (command, option)


def test_cli_counts_the_persistent_triangles_of_a_sampled_cloud(tmp_path, capsys):
    # One triangle of this 300-point cloud lives from 0.05 to 0.055.
    cloud_path = tmp_path / "cloud.txt"
    assert cli.main(["sample", "--n", "300", "--seed", "4", "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    assert cli.main(["count", "--cloud", str(cloud_path), "--property", "zeta", "--p", "3",
                     "--theta", "1.1", "--r", "0.05", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_cli_persistence_rejects_a_dense_cloud(tmp_path, capsys):
    # 400 points at r_max = 1 in the unit square need 10,586,800 candidate
    # triangles: an error line and exit code 1, before any is made.
    cloud_path = tmp_path / "cloud.txt"
    PointCloud(2, np.random.default_rng(101).random((400, 2))).save(cloud_path)
    diagram_path = tmp_path / "diagram.csv"
    assert cli.main(["persistence", "--cloud", str(cloud_path), "--r-max", "1",
                     "--out", str(diagram_path)]) == 1
    assert "candidate triangles" in capsys.readouterr().err
    assert not diagram_path.exists()


def test_one_cloud_over_the_triangle_cap_is_refused_alike_everywhere(tmp_path, capsys):
    # The same 400-point clique: the builder, the rank and the CLI's betti
    # command all refuse it with the cloud's own count.
    cloud = PointCloud(2, np.random.default_rng(101).random((400, 2)))
    message = _outcome(lambda: build_cech_filtration(cloud, 1.0, 2))
    assert message == ("ConfigurationError", "the filtration needs 10586800 candidate "
                       "triangles, above the cap of 5000000")
    assert _outcome(lambda: persistent_betti(cloud, 0.5, 2.0, 1)) == message
    cloud_path = tmp_path / "cloud.txt"
    cloud.save(cloud_path)
    assert cli.main(["betti", "--cloud", str(cloud_path), "--r", "0.5", "--theta", "2",
                     "--k", "1"]) == 1
    assert message[1] in capsys.readouterr().err


def test_cli_experiment_with_config_is_reproducible(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\n"
        "d = 2\nk = 1\ntheta = 1.0\nc = 0.4\nq = -0.75\n"
        "n_grid = 8, 16\ntrials = 4\nseed = 3\n"
        "[density]\nbox = 0,1;0,1\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["experiment", "--config", str(config),
                         "--out-dir", str(out)]) == 0
    results_a = (out_a / "results.csv").read_bytes()
    assert results_a == (out_b / "results.csv").read_bytes()
    assert results_a.startswith(b"n,r,mean_betti,se,trials")
    assert (out_a / "experiment-manifest.json").exists()


def test_cli_flags_override_config(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["experiment", "--d", "2", "--k", "1", "--c", "0.4",
                     "--q", "-0.75", "--n-grid", "8,16", "--trials", "3",
                     "--seed", "9", "--box=0,1;0,1",
                     "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "experiment-manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 9
    assert manifest["parameters"]["trials"] == 3


def test_cli_audit_roundtrip(tmp_path):
    out = tmp_path / "audit"
    assert cli.main(["audit", "--d", "2", "--k", "1", "--theta", "1.0",
                     "--c", "0.35", "--q", "-0.75", "--n-grid", "6,12",
                     "--trials", "5", "--seed", "3", "--m", "3",
                     "--box=0,1;0,1", "--out-dir", str(out)]) == 0
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "n,trial,isolated_cycles,persistent_betti"
    assert len(lines) == 11


def test_cli_error_exit_codes(tmp_path, capsys):
    # Supercritical q: configuration error, exit 1.
    assert cli.main(["experiment", "--d", "2", "--k", "1", "--c", "0.4",
                     "--q", "-0.3", "--n-grid", "8,16", "--trials", "2",
                     "--box=0,1;0,1", "--out-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    # Missing input file: exit 1.
    assert cli.main(["betti", "--cloud", str(tmp_path / "missing.txt"),
                     "--r", "0.1", "--out-dir", str(tmp_path)]) == 1
    # Audit without --m: exit 1.
    assert cli.main(["audit", "--d", "2", "--k", "1", "--c", "0.35",
                     "--q", "-0.75", "--n-grid", "6,12", "--trials", "2",
                     "--box=0,1;0,1", "--out-dir", str(tmp_path)]) == 1


def test_cli_audit_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(args):
        raise AuditError("synthetic violation")

    monkeypatch.setattr(cli, "_cmd_audit", boom)
    assert cli.main(["audit", "--m", "3"]) == 2
    assert "audit failure" in capsys.readouterr().err


def test_cli_witness_and_search(tmp_path):
    witness_path = tmp_path / "witness.txt"
    assert cli.main(["witness", "--k", "1", "--theta", "1.5",
                     "--out", str(witness_path)]) == 0
    assert witness_path.exists()
    found = tmp_path / "found.txt"
    assert cli.main(["search-m", "--d", "2", "--k", "1", "--theta", "1.0",
                     "--p", "3", "--trials", "2000", "--seed", "7",
                     "--out", str(found), "--out-dir", str(tmp_path)]) == 0
    assert found.exists()


def test_cli_search_manifest_goes_to_out_dir_when_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    search = ["search-m", "--d", "2", "--k", "1", "--theta", "1.0", "--p", "3",
              "--trials", "500", "--seed", "7"]
    # With --out-dir, the manifest goes there, and both directories are made.
    assert cli.main(search + ["--out", "w/found.txt", "--out-dir", "m/deep"]) == 0
    assert (tmp_path / "w" / "found.txt").exists()
    assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.*")) == \
        ["m/deep/search-m-manifest.json", "w/found.txt"]
    # With --out alone, it goes beside the witness.
    assert cli.main(search + ["--out", "v/found.txt"]) == 0
    assert (tmp_path / "v" / "search-m-manifest.json").exists()
    assert not (tmp_path / "search-m-manifest.json").exists()


def test_cli_mu_and_palm(tmp_path, capsys):
    assert cli.main(["mu", "--property", "iso", "--graph", "k2",
                     "--samples", "20000", "--seed", "11",
                     "--box=0,1;0,1", "--out-dir", str(tmp_path)]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[-1].split()[2])
    assert abs(value - math.pi / 2.0) < 0.2
    assert cli.main(["palm", "--property", "conn", "--r", "0.15", "--p", "2",
                     "--n", "30", "--trials", "400", "--rhs-trials", "4000",
                     "--seed", "13", "--box=0,1;0,1",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for rhs_trials in ("1", "0"):
        assert cli.main(["palm", "--property", "conn", "--r", "0.15", "--p", "2",
                         "--n", "30", "--trials", "40", "--rhs-trials", rhs_trials,
                         "--out-dir", str(tmp_path)]) == 1
        assert "right-hand trials" in capsys.readouterr().err


def test_cli_figure1_writes_frames_and_results(tmp_path):
    out = tmp_path / "fig"
    assert cli.main(["figure1", "--trials", "2", "--seed", "1",
                     "--out-dir", str(out)]) == 0
    for n in (100, 1000, 10000):
        assert (out / f"balls-n{n}.svg").exists()
    assert (out / "results.csv").exists()
    assert (out / "figure1-manifest.json").exists()
