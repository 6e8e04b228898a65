"""Monte Carlo harness for persistent Betti scaling experiments.

Runs the radius law r_n = c * n^q over an n-grid, Poisson cloud by
Poisson cloud, and fits the growth exponent of the mean persistent
Betti number against the predicted 1 + (q*d + 1) * (m - 1).

Trials are independent: trial t at grid index i draws from its own
stream (seed, i, t). `run_experiment` and `lower_bound_audit` split each
batch of trials over the cores this process may run on, one forked
process per extra core, and gather the values in trial order, so every
output is bit-identical to a serial run. Each core's chunk runs as
consecutive batches of trials. A batch is drawn as one stack of points
(`sampling._sample_stack`, the draws of `sample_poisson` on each trial's
stream, whose keys `sampling._streams` derives for the whole batch at once)
and ranked (and, in the audit, counted) by one pass each: the
stacked forms of `persistent_bettis` and `subset_counts`. The audit
makes one neighbour query per batch, at the largest cutoff either pass
needs, and hands its candidates to both.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import platform
import signal
import threading
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np
import scipy

from .errors import AuditError, ConfigurationError
from .geometry import PointCloud, _batch_sizes, _near_pairs
from .persistence import GF2, FieldSpec, _persistent_bettis
from .properties import _reach, _subset_counts, upsilon
from .sampling import Density, _sample_stack, _streams

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one scaling experiment.

    `trials` is the number of Poisson clouds drawn per grid point; when
    `max_trials` exceeds it, extra trials are added deterministically
    until the relative standard error of the mean drops below
    `target_rel_se` or the cap is reached. The subcritical guard
    q < -1/d is enforced at construction, before any sampling.
    """

    d: int
    k: int
    theta: float
    density: Density
    c: float
    q: float
    n_grid: tuple[float, ...]
    trials: int
    seed: int
    field: FieldSpec = GF2
    max_trials: int | None = None
    target_rel_se: float = 0.10

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigurationError(f"ambient dimension must be positive, got {self.d}")
        if self.k < 0:
            raise ConfigurationError(f"homology degree must be nonnegative, got {self.k}")
        if not (math.isfinite(self.theta) and self.theta >= 1.0):
            raise ConfigurationError(
                f"persistence factor must satisfy theta >= 1, got {self.theta}")
        if self.density.dim != self.d:
            raise ConfigurationError(
                f"density dimension {self.density.dim} does not match d={self.d}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ConfigurationError(f"radius coefficient must be >= 0, got {self.c}")
        if not math.isfinite(self.q):
            raise ConfigurationError(f"radius exponent must be finite, got {self.q}")
        if self.q >= -1.0 / self.d:
            raise ConfigurationError(
                f"subcritical regime requires q < -1/d = {-1.0 / self.d:g}, got q={self.q}")
        grid = tuple(float(n) for n in self.n_grid)
        if not grid:
            raise ConfigurationError("n_grid must not be empty")
        if any(not (math.isfinite(n) and n > 0.0) for n in grid):
            raise ConfigurationError("n_grid entries must be positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ConfigurationError(f"trials must be positive, got {self.trials}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.max_trials is not None and self.max_trials < self.trials:
            raise ConfigurationError(
                f"max_trials={self.max_trials} is below trials={self.trials}")
        if not (math.isfinite(self.target_rel_se) and self.target_rel_se > 0.0):
            raise ConfigurationError(
                f"target relative SE must be positive, got {self.target_rel_se}")

    def radius(self, n: float) -> float:
        return self.c * float(n) ** self.q

    def parameters(self) -> dict:
        """JSON-friendly echo of the spec (density by kind and box)."""
        return {
            "d": self.d,
            "k": self.k,
            "theta": self.theta,
            "c": self.c,
            "q": self.q,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "seed": self.seed,
            "field": self.field.characteristic,
            "max_trials": self.max_trials,
            "target_rel_se": self.target_rel_se,
            "density": {
                "kind": self.density.kind,
                "box": [list(pair) for pair in self.density.box],
                "bound": self.density.bound,
            },
        }


@dataclass(frozen=True, slots=True)
class ResultRow:
    n: float
    r: float
    mean_betti: float
    se: float
    trials: int


@dataclass(frozen=True)
class FitSummary:
    slope: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class ExperimentResult:
    """Per-n statistics plus the fitted and predicted exponents.

    `fit` is None when the grid cannot support a regression (too few
    rows, a zero mean, or a span under one decade); `fit_note` then
    carries the reason verbatim.
    """

    spec: ExperimentSpec
    rows: tuple[ResultRow, ...]
    fit: FitSummary | None
    fit_note: str | None
    predicted: float | None

    @property
    def seed(self) -> int:
        return self.spec.seed


def predicted_exponent(d: int, q: float, m: int) -> float:
    """Growth exponent of n * (r_n^d * n)^(m-1) under r_n = c * n^q."""
    if m < 1:
        raise ValueError(f"minimal cycle arity must be positive, got {m}")
    return 1.0 + (q * d + 1.0) * (m - 1)


def _run_chunk(task: Callable[[range], list[T]], chunk: range,
               intensity: float) -> list[T] | int:
    """The chunk's values in order, or the first trial of it whose task raises.

    The chunk goes to `task` as consecutive batches of `geometry._batch_sizes`
    for clouds of the given intensity. A batch that raises is run again one
    trial at a time, so the trial found is the serial loop's, and a batch
    that raised only as a whole gives the values of its trials run alone.
    """
    values: list[T] = []
    for size in _batch_sizes(len(chunk), intensity):
        batch, chunk = chunk[:size], chunk[size:]
        try:
            values += task(batch)
            continue
        except Exception:
            pass
        for t in batch:
            try:
                values += task(range(t, t + 1))
            except Exception:
                return t
    return values


def _map_trials(task: Callable[[range], list[T]], trials: range, intensity: float) -> list[T]:
    """The values of `trials` in order, with the trials split over the usable cores.

    `task` maps a range of consecutive trials to their values, and each
    trial's cloud has the given intensity. The trials are cut into w
    contiguous chunks, w being the number of cores in this process's
    affinity mask capped by the number of trials. The caller runs the first
    chunk itself; a forked child runs each other one and pickles its values
    back through a pipe. While other threads run, w is 1: a fork copies only
    the calling thread, so a lock another thread holds would stay held in
    the child. Each chunk goes to `task` in the batches of
    `geometry._batch_sizes` (`_run_chunk`). Each trial draws from its own
    stream, so the values are the serial loop's.

    The first trial whose task raises, in the caller's chunk or a child's,
    is run again alone by the caller, so the exception raised is the serial
    loop's: the first in trial order, with its own type and message.
    Children end in `os._exit` and are reaped before this returns or raises;
    on an exception they are killed first.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = 1 if threading.active_count() > 1 else min(cores, len(trials))
    if w <= 1:
        return _raise_or_values(task, _run_chunk(task, trials, intensity), "")
    chunks = [trials[j * len(trials) // w:(j + 1) * len(trials) // w] for j in range(w)]
    children = []  # (pid, read end of its pipe, its chunk)
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as out:
                        pickle.dump(_run_chunk(task, chunk, intensity), out)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), chunk))
        values = _raise_or_values(task, _run_chunk(task, chunks[0], intensity), "")
        for pid, pipe, chunk in children:
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} ended without the values "
                                   f"of trials {chunk[0]}..{chunk[-1]}") from None
            values += _raise_or_values(task, result, " in a worker process")
        return values
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)


def _raise_or_values(task: Callable[[range], list[T]], result: list[T] | int,
                     where: str) -> list[T]:
    """The values of `_run_chunk`, or the exception of the trial it names, run again."""
    if isinstance(result, int):
        task(range(result, result + 1))
        raise RuntimeError(f"trial {result} raised{where} but not when run again")
    return result


def _collect_row(spec: ExperimentSpec, n_index: int) -> ResultRow:
    """Mean and standard error of the persistent Betti number at one grid point.

    Runs `spec.trials` trials, then, while the relative standard error
    exceeds `target_rel_se` and the cap allows, adds batches of
    max(trials, done // 2) more. Each batch is split over the usable
    cores by `_map_trials`; trial t always draws from the stream
    (seed, n_index, t), so the row does not depend on the split.
    """
    n = spec.n_grid[n_index]
    r = spec.radius(n)
    cap = spec.max_trials if spec.max_trials is not None else spec.trials

    def trials(batch: range) -> list[int]:
        points, sizes = _sample_stack(n, spec.density, _streams(spec.seed, (n_index,), batch))
        return _persistent_bettis(points, sizes, r, spec.theta, spec.k, spec.field).tolist()

    values: list[int] = []
    while True:
        done = len(values)
        target = spec.trials if done == 0 else min(cap, done + max(spec.trials, done // 2))
        values += _map_trials(trials, range(done, target), n)
        mean = float(np.mean(values))
        se = 0.0
        if len(values) > 1:
            se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        rel = se / mean if mean > 0.0 else 0.0
        if rel <= spec.target_rel_se or len(values) >= cap:
            return ResultRow(n=n, r=r, mean_betti=mean, se=se, trials=len(values))


def run_experiment(spec: ExperimentSpec, m: int | None = None) -> ExperimentResult:
    """Sample every grid point and attempt the exponent fit.

    Trial t at grid index i always uses the stream (seed, i, t), so
    results are bit-reproducible and independent of batching order.
    Supplying the minimal cycle arity m fills in the predicted
    exponent; it is not needed for the sampling itself.
    """
    rows = tuple(_collect_row(spec, i) for i in range(len(spec.n_grid)))
    fit = None
    note = None
    try:
        fit = fit_exponent([(row.n, row.mean_betti) for row in rows])
    except ConfigurationError as exc:
        note = str(exc)
    predicted = None if m is None else predicted_exponent(spec.d, spec.q, m)
    return ExperimentResult(spec=spec, rows=rows, fit=fit, fit_note=note,
                            predicted=predicted)


def fit_exponent(rows: Sequence[tuple[float, float]]) -> FitSummary:
    """Least squares slope of log(mean) against log(n), with 95% CI.

    Requires at least 4 rows, strictly positive means, and an n-range
    spanning at least one decade; the CI uses the t quantile on the
    residual degrees of freedom.
    """
    pairs = [(float(n), float(mean)) for n, mean in rows]
    if len(pairs) < 4:
        raise ConfigurationError(f"exponent fit needs at least 4 rows, got {len(pairs)}")
    for n, mean in pairs:
        if not (math.isfinite(n) and n > 0.0):
            raise ConfigurationError(f"invalid n={n} in fit input")
        if not (math.isfinite(mean) and mean > 0.0):
            raise ConfigurationError(
                f"mean persistent Betti is {mean:g} at n={n:g}; "
                "increase trials or enlarge n until every mean is positive")
    ns = np.array([n for n, _ in pairs])
    span = math.log10(float(ns.max() / ns.min()))
    if span < 1.0 - 1e-12:
        raise ConfigurationError(
            f"n-grid spans {span:.2f} decades; the fit needs at least 1.0")
    x = np.log(ns)
    y = np.log(np.array([mean for _, mean in pairs]))
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(pairs) - 2
    se = math.sqrt(max(float(residuals @ residuals), 0.0) / dof / sxx)
    from scipy.stats import t as student_t  # deferred: most of cechlab's import time

    tq = float(student_t.ppf(0.975, dof))
    return FitSummary(slope=slope, ci_lo=slope - tq * se, ci_hi=slope + tq * se)


@dataclass(frozen=True, slots=True)
class AuditRow:
    n: float
    trial: int
    isolated_cycles: int
    persistent_betti: int


@dataclass(frozen=True)
class AuditTable:
    rows: tuple[AuditRow, ...]

    def mean_isolated_cycles(self) -> float:
        return float(np.mean([row.isolated_cycles for row in self.rows]))

    def mean_persistent_betti(self) -> float:
        return float(np.mean([row.persistent_betti for row in self.rows]))

    def equality_fraction(self) -> float:
        hits = sum(1 for row in self.rows if row.isolated_cycles == row.persistent_betti)
        return hits / len(self.rows)


def lower_bound_audit(spec: ExperimentSpec, m: int,
                      dump_dir: str | Path = ".") -> AuditTable:
    """Check isolated-cycle counts against persistent Betti, cloud by cloud.

    Counting m-subsets that are both separated at scale theta*r and
    support a persistent cycle can never exceed the persistent Betti
    number of the whole cloud; a violating cloud is saved to `dump_dir`
    for repro before the audit aborts. The trials of each grid point are
    split over the usable cores by `_map_trials`; a batch of them is
    sampled as one stack, its pairs are found by one neighbour query at the
    largest cutoff either side needs, and it is counted as `subset_counts`
    and ranked as `persistent_bettis` would, each side keeping the pairs
    that pass its own test; then it is checked in trial order. At
    m = k+2 that cutoff is the isolation test's and the Cech edges'
    2*theta*r, since `zeta`'s locality radius there is 2r; above k+2 it is
    `zeta`'s 2*theta*r*m. The audit
    stops at the first violation or error in trial order, as a serial loop
    would.
    """
    if spec.k < 1:
        raise ConfigurationError(f"audit needs homology degree k >= 1, got {spec.k}")
    if m < spec.k + 2:
        raise ConfigurationError(
            f"cycle arity m must be at least k+2 = {spec.k + 2}, got {m}")
    caller = os.getpid()
    rows: list[AuditRow] = []
    for i, n in enumerate(spec.n_grid):
        r = spec.radius(n)
        h = upsilon(r, m, spec.theta, spec.k, spec.field)
        reach = max(_reach(h), 2.0 * spec.theta * r)  # the isolation test's, and the edges'

        def trials(batch: range) -> list[AuditRow]:
            points, sizes = _sample_stack(n, spec.density, _streams(spec.seed, (i,), batch))
            near = _near_pairs(points, sizes, reach)
            counts = _subset_counts(h, points, sizes, near).tolist()
            ranks = _persistent_bettis(points, sizes, r, spec.theta, spec.k, spec.field,
                                       near).tolist()
            starts = np.cumsum(sizes) - sizes
            out = []
            for t, start, size, count, rank in zip(batch, starts.tolist(), sizes, counts, ranks):
                if count > rank:
                    path = Path(dump_dir) / f"audit-violation-n{n:g}-trial{t}.txt"
                    # A child's violating trial is run again by the caller, which
                    # saves it; a child saving could leave clouds of later trials.
                    if os.getpid() == caller:
                        PointCloud(spec.d, points[start:start + size]).save(path)
                    raise AuditError(
                        f"isolated-cycle count {count} exceeds persistent Betti {rank} "
                        f"at n={n:g}, trial {t}; offending cloud saved to {path}")
                out.append(AuditRow(n=n, trial=t, isolated_cycles=count, persistent_betti=rank))
            return out

        rows += _map_trials(trials, range(spec.trials), n)
    return AuditTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _format_n(n: float) -> str:
    return str(int(n)) if float(n).is_integer() else repr(float(n))


def results_csv(result: ExperimentResult) -> str:
    lines = ["n,r,mean_betti,se,trials"]
    for row in result.rows:
        lines.append(f"{_format_n(row.n)},{row.r!r},{row.mean_betti!r},"
                     f"{row.se!r},{row.trials}")
    return "\n".join(lines) + "\n"


def fit_csv(result: ExperimentResult) -> str:
    predicted = math.nan if result.predicted is None else result.predicted
    if result.fit is None:
        slope = ci_lo = ci_hi = math.nan
    else:
        slope, ci_lo, ci_hi = result.fit.slope, result.fit.ci_lo, result.fit.ci_hi
    return ("slope,ci_lo,ci_hi,predicted\n"
            f"{slope!r},{ci_lo!r},{ci_hi!r},{predicted!r}\n")


def audit_csv(table: AuditTable) -> str:
    lines = ["n,trial,isolated_cycles,persistent_betti"]
    for row in table.rows:
        lines.append(f"{_format_n(row.n)},{row.trial},{row.isolated_cycles},"
                     f"{row.persistent_betti}")
    return "\n".join(lines) + "\n"


def _package_version() -> str:
    try:
        return metadata.version("cechlab")
    except metadata.PackageNotFoundError:
        return "unknown"


def manifest_payload(command: str, parameters: dict) -> dict:
    """Reproducibility record: command, parameters, tool versions.

    Deliberately timestamp-free so identical runs write identical
    manifests.
    """
    return {
        "tool": "cechlab",
        "version": _package_version(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": command,
        "parameters": parameters,
    }


def write_manifest(path: str | Path, command: str, parameters: dict) -> dict:
    payload = manifest_payload(command, parameters)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return payload
