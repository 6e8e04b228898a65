"""The three workloads: their calls into cechlab, their checks and their replays.

A round is a workload's fixed list of calls. A traced round follows each
call with a replay: the benchmark draws the call's clouds again from the
same streams and calls each layer's public function on them itself,
with a span around every call. Checks run once, on the first round.
"""
from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cechlab import (GF2, AuditTable, ExperimentResult, ExperimentSpec,
                     PersistenceDiagram, PointCloud,
                     build_cech_filtration, compute_persistence, geometric_graph,
                     lower_bound_audit, run_experiment, sample_poisson, search_m, stream,
                     subset_count, upsilon)
from cechlab.filtration import FilteredComplex

import specs
from oracle import components, persistent_rank
from spans import Span, Tracer

# search_m scores its configurations in batches of this size and, with
# about 26 configurations above theta=1.2 per batch of 4-point ones,
# returns a witness from its first batch, which the replay redraws.
SEARCH_BATCH = 4096


@dataclass
class Call:
    """One timed call into cechlab, standing for `count(output)` operations."""

    label: str
    layer: str  # "experiment" or "witness", the layer the call enters
    run: Callable[[], object]
    count: Callable[[object], int]
    planned: int  # operations counted as failed if the call raises
    replay: Callable[[object, Tracer, Span, "Largest"], list[str]]
    check: Callable[[object], list[str]]
    summary: Callable[[object], object]  # compared across rounds


@dataclass
class Workload:
    calls: list[Call]
    per_n: bool  # trial_s.* are per call (per n) rather than per round


class Largest:
    """The round's filtration with the most simplices, for the memory probe."""

    def __init__(self) -> None:
        self.complex: FilteredComplex | None = None
        self.field = None

    def offer(self, complex_: FilteredComplex, field) -> None:
        if self.complex is None or len(complex_) > len(self.complex):
            self.complex, self.field = complex_, field

    def peak_bytes(self) -> int:
        """tracemalloc peak of compute_persistence on it, above the filtration itself."""
        tracemalloc.start()
        try:
            compute_persistence(self.complex, self.field)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# Replay: each layer's public function on the call's own clouds
# ---------------------------------------------------------------------------


def _layers(cloud: PointCloud, outer: float, k: int, field, tracer: Tracer,
            parent: Span, largest: Largest) -> PersistenceDiagram:
    """Graph at 2*outer, filtration up to outer and persistence of one cloud."""
    with tracer.span("geometry", parent) as span:
        graph = geometric_graph(cloud, 2.0 * outer)
    span.counts["geometry.edges"] = len(graph.edges)
    with tracer.span("filtration", parent) as span:
        complex_ = build_cech_filtration(cloud, outer, k + 1)
    dims = complex_.dimension_counts()
    span.counts["filtration.simplices_d1"] = dims.get(1, 0)
    span.counts["filtration.simplices_d2"] = dims.get(2, 0)
    with tracer.span("persistence", parent) as span:
        diagram = compute_persistence(complex_, field)
    _, labels = components(cloud.points, 2.0 * outer)
    useful = np.bincount(labels, minlength=1)[labels] >= k + 2
    columns = [verts for verts, _ in complex_.simplices if len(verts) > 1]
    span.counts["persistence.columns"] = len(columns)
    span.counts["persistence.useful_columns"] = sum(bool(useful[v[0]]) for v in columns)
    span.counts["persistence.finite_pairs"] = sum(
        1 for _, _, death in diagram.intervals if np.isfinite(death))
    largest.offer(complex_, field)
    return diagram


def _sample(spec: ExperimentSpec, i: int, t: int, tracer: Tracer, parent: Span) -> PointCloud:
    with tracer.span("sampling", parent) as span:
        cloud = sample_poisson(spec.n_grid[i], spec.density, stream(spec.seed, i, t))
    span.counts["sampling.points"] = len(cloud)
    return cloud


def _replay_experiment(spec: ExperimentSpec):
    def replay(result: ExperimentResult, tracer: Tracer, parent: Span,
               largest: Largest) -> list[str]:
        problems = []
        for i, row in enumerate(result.rows):
            total = 0
            for t in range(row.trials):
                cloud = _sample(spec, i, t, tracer, parent)
                outer = spec.theta * row.r
                diagram = _layers(cloud, outer, spec.k, spec.field, tracer, parent, largest)
                total += diagram.rank(spec.k, row.r, outer)
            if total / row.trials != row.mean_betti:
                problems.append(f"replay at n={row.n:g} gives mean {total / row.trials}, "
                                f"the call {row.mean_betti}")
        return problems
    return replay


def _replay_audit(spec: ExperimentSpec, m: int):
    def replay(table: AuditTable, tracer: Tracer, parent: Span,
               largest: Largest) -> list[str]:
        r = spec.radius(spec.n_grid[0])
        outer = spec.theta * r
        h = upsilon(r, m, spec.theta, spec.k, spec.field)
        problems = []
        for row in table.rows:
            cloud = _sample(spec, 0, row.trial, tracer, parent)
            diagram = _layers(cloud, outer, spec.k, spec.field, tracer, parent, largest)
            rank = diagram.rank(spec.k, r, outer)
            with tracer.span("properties", parent) as span:
                count = subset_count(h, cloud)
            span.counts["properties.isolated_cycles"] = count
            if (count, rank) != (row.isolated_cycles, row.persistent_betti):
                problems.append(f"replay of trial {row.trial} gives ({count}, {rank}), "
                                f"the call ({row.isolated_cycles}, {row.persistent_betti})")
        return problems
    return replay


def _replay_search(search: specs.Search):
    def replay(witness, tracer: Tracer, parent: Span, largest: Largest) -> list[str]:
        if search.p == 3 and search.k == 1:
            return []  # search_m scores triangles in closed form, outside these layers
        configs = stream(search.seed, *search.path).random(
            (min(SEARCH_BATCH, search.trials), search.p, search.d))
        above = 0
        for config in configs:
            cloud = PointCloud(search.d, config)
            gaps = config[:, None, :] - config[None, :, :]
            diameter = float(np.sqrt((gaps ** 2).sum(axis=2).max()))
            diagram = _layers(cloud, diameter, search.k, GF2, tracer, parent, largest)
            above += any(0.0 < b and d > search.theta * b
                         for b, d in diagram.in_dimension(search.k))
        if above == 0:
            return [f"{search.label}: no configuration of the first batch persists past "
                    f"theta, so the replay did not see the search's clouds"]
        return []
    return replay


# ---------------------------------------------------------------------------
# Checks: against the oracle or a property of the method
# ---------------------------------------------------------------------------


def _check_experiment(spec: ExperimentSpec):
    def check(result: ExperimentResult) -> list[str]:
        problems = []
        for i, row in enumerate(result.rows):
            if row.trials < spec.trials:
                problems.append(f"n={row.n:g}: {row.trials} trials, fewer than {spec.trials}")
            ranks = [persistent_rank(
                sample_poisson(row.n, spec.density, stream(spec.seed, i, t)).points,
                row.r, spec.theta * row.r) for t in range(row.trials)]
            if float(np.mean(ranks)) != row.mean_betti:
                problems.append(f"n={row.n:g}: mean {row.mean_betti} but the oracle's "
                                f"is {float(np.mean(ranks))}")
        return problems
    return check


def _check_audit(spec: ExperimentSpec, m: int):
    def check(table: AuditTable) -> list[str]:
        r = spec.radius(spec.n_grid[0])
        outer = spec.theta * r
        problems = []
        for row in table.rows:
            points = sample_poisson(row.n, spec.density, stream(spec.seed, 0, row.trial)).points
            rank = persistent_rank(points, r, outer)
            # m is minimal at this theta, so an isolated m-subset with a
            # persistent cycle is a whole component of exactly m points.
            _, labels = components(points, 2.0 * outer)
            isolated = sum(persistent_rank(points[labels == label], r, outer) >= 1
                           for label in np.flatnonzero(np.bincount(labels) == m))
            if (row.isolated_cycles, row.persistent_betti) != (isolated, rank):
                problems.append(f"trial {row.trial}: isolated cycles and rank "
                                f"({row.isolated_cycles}, {row.persistent_betti}), "
                                f"oracle ({isolated}, {rank})")
        return problems
    return check


def _check_search(search: specs.Search):
    def check(witness) -> list[str]:
        if search.p == 3:
            # Triangles die by 2/sqrt(3) < 1.2, so no 3-point cycle persists.
            return [] if witness is None else [f"{search.label}: found a 3-point witness"]
        if witness is None:
            return [f"{search.label}: no {search.p}-point witness found"]
        points = witness.points.points
        if len(points) != search.p:
            return [f"{search.label}: witness has {len(points)} points"]
        if persistent_rank(points, witness.r, witness.theta * witness.r) < 1:
            return [f"{search.label}: the oracle finds no cycle in the witness"]
        return []
    return check


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def fig1_large(seed: int, out: Path) -> Workload:
    calls = [Call(label=label, layer="experiment",
                  run=lambda spec=spec: run_experiment(spec),
                  count=lambda result: sum(row.trials for row in result.rows),
                  planned=spec.trials * len(spec.n_grid),
                  replay=_replay_experiment(spec),
                  check=_check_experiment(spec),
                  summary=lambda result: (result.rows, result.fit))
             for label, spec in specs.fig1(seed).items()]
    return Workload(calls, per_n=True)


def audit_6(seed: int, out: Path) -> Workload:
    calls = [Call(label=label, layer="experiment",
                  run=lambda spec=spec, m=m: lower_bound_audit(spec, m, dump_dir=out),
                  count=lambda table: len(table.rows),
                  planned=spec.trials,
                  replay=_replay_audit(spec, m),
                  check=_check_audit(spec, m),
                  summary=lambda table: table.rows)
             for label, (spec, m) in specs.audit_6(seed).items()]
    return Workload(calls, per_n=False)


def arity_search(seed: int, out: Path) -> Workload:
    def run(search: specs.Search):
        return lambda: search_m(search.d, search.k, search.theta, search.p, search.trials,
                                stream(search.seed, *search.path))

    def summary(witness):
        if witness is None:
            return None
        return witness.points.points.tolist(), witness.r, witness.R, witness.verified_rank

    calls = [Call(label=label, layer="witness", run=run(search),
                  count=lambda witness: 1, planned=1,
                  replay=_replay_search(search), check=_check_search(search),
                  summary=summary)
             for label, search in specs.arity_search(seed).items()]
    return Workload(calls, per_n=False)


def warm_up() -> None:
    """Finish cechlab's lazy set-up (search_m imports scipy.optimize on first use)."""
    search_m(2, 1, 1.2, 3, 8, stream(0))


WORKLOADS = {
    "fig1-large": fig1_large,
    "audit-6": audit_6,
    "arity-search": arity_search,
}
