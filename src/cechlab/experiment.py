"""Monte Carlo harness for persistent Betti scaling experiments.

Runs the radius law r_n = c * n^q over an n-grid, Poisson cloud by
Poisson cloud, and fits the growth exponent of the mean persistent
Betti number against the predicted 1 + (q*d + 1) * (m - 1).
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from .errors import AuditError, ConfigurationError
from .persistence import GF2, FieldSpec, persistent_betti
from .properties import subset_count, upsilon
from .sampling import Density, sample_poisson, stream


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


@dataclass(frozen=True)
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


def _collect_row(spec: ExperimentSpec, n_index: int) -> ResultRow:
    n = spec.n_grid[n_index]
    r = spec.radius(n)
    cap = spec.max_trials if spec.max_trials is not None else spec.trials
    values: list[int] = []
    while True:
        done = len(values)
        target = spec.trials if done == 0 else min(cap, done + max(spec.trials, done // 2))
        for t in range(done, target):
            cloud = sample_poisson(n, spec.density, stream(spec.seed, n_index, t))
            values.append(persistent_betti(cloud, r, spec.theta, spec.k, spec.field))
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


@dataclass(frozen=True)
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
    for repro before the audit aborts.
    """
    if spec.k < 1:
        raise ConfigurationError(f"audit needs homology degree k >= 1, got {spec.k}")
    if m < spec.k + 2:
        raise ConfigurationError(
            f"cycle arity m must be at least k+2 = {spec.k + 2}, got {m}")
    rows: list[AuditRow] = []
    for i, n in enumerate(spec.n_grid):
        r = spec.radius(n)
        h = upsilon(r, m, spec.theta, spec.k, spec.field)
        for t in range(spec.trials):
            cloud = sample_poisson(n, spec.density, stream(spec.seed, i, t))
            count = subset_count(h, cloud)
            rank = persistent_betti(cloud, r, spec.theta, spec.k, spec.field)
            if count > rank:
                path = Path(dump_dir) / f"audit-violation-n{n:g}-trial{t}.txt"
                cloud.save(path)
                raise AuditError(
                    f"isolated-cycle count {count} exceeds persistent Betti {rank} "
                    f"at n={n:g}, trial {t}; offending cloud saved to {path}")
            rows.append(AuditRow(n=n, trial=t, isolated_cycles=count,
                                 persistent_betti=rank))
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
