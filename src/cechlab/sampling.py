"""Random point clouds from bounded densities, with reproducible streams.

All randomness flows through numpy's Philox generator, a counter-based
bit generator that supports cheap stream splitting: `stream(seed, i, t)`
yields an independent generator for, say, grid index i and trial t, so
trials can run in any order (or in parallel) and still reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .geometry import PointCloud

__all__ = ["Density", "stream", "sample_binomial", "sample_poisson", "sample_in_ball"]

_REJECTION_BATCH = 1024
# Rejection sampling gives up after this many batches in a row accept
# nothing: a density with (almost) no mass on its box would loop forever.
_MAX_BARREN_BATCHES = 64


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by `path` under `seed`."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Density:
    """Probability density on R^d, supported inside an axis-aligned box.

    `bound` is a finite sup bound on the density; custom densities are
    sampled by rejection against the uniform proposal on the box.
    """

    dim: int
    kind: str  # "uniform-box" | "custom-bounded"
    box: tuple[tuple[float, float], ...]
    bound: float
    evaluator: Callable[[np.ndarray], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform-box", "custom-bounded"):
            raise ConfigurationError(f"unknown density kind {self.kind!r}")
        if len(self.box) != self.dim:
            raise ConfigurationError("box must give one (lo, hi) pair per axis")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigurationError(f"invalid box interval ({lo}, {hi})")
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ConfigurationError(f"density bound must be positive and finite, got {self.bound}")
        if self.kind == "custom-bounded" and self.evaluator is None:
            raise ConfigurationError("custom density requires an evaluator")

    @staticmethod
    def uniform_box(box: Sequence[Sequence[float]]) -> "Density":
        box_t = tuple((float(lo), float(hi)) for lo, hi in box)
        volume = 1.0
        for lo, hi in box_t:
            volume *= hi - lo
        if not volume > 0.0:
            raise ConfigurationError(f"box {box_t} has no volume")
        return Density(dim=len(box_t), kind="uniform-box", box=box_t, bound=1.0 / volume)

    @staticmethod
    def unit_cube(dim: int) -> "Density":
        return Density.uniform_box([(0.0, 1.0)] * dim)

    @staticmethod
    def custom(box: Sequence[Sequence[float]], bound: float,
               evaluator: Callable[[np.ndarray], float]) -> "Density":
        box_t = tuple((float(lo), float(hi)) for lo, hi in box)
        return Density(dim=len(box_t), kind="custom-bounded", box=box_t,
                       bound=float(bound), evaluator=evaluator)

    def box_volume(self) -> float:
        volume = 1.0
        for lo, hi in self.box:
            volume *= hi - lo
        return volume

    def __call__(self, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=np.float64)
        if self.kind == "uniform-box":
            inside = all(lo <= x <= hi for x, (lo, hi) in zip(point, self.box))
            return 1.0 / self.box_volume() if inside else 0.0
        value = float(self.evaluator(point))  # type: ignore[misc]
        if value < 0.0:
            raise ConfigurationError(f"density evaluated to {value} < 0")
        if value > self.bound * (1.0 + 1e-9):
            raise ConfigurationError(
                f"density value {value} exceeds its declared bound {self.bound}")
        return value

    def _uniform_in_box(self, count: int, rng: np.random.Generator) -> np.ndarray:
        lows = np.array([lo for lo, _ in self.box])
        highs = np.array([hi for _, hi in self.box])
        return lows + rng.random((count, self.dim)) * (highs - lows)


def sample_binomial(n: int, density: Density, rng: np.random.Generator) -> PointCloud:
    """n i.i.d. points from the density."""
    if not isinstance(density, Density):
        raise ConfigurationError(
            f"density must be a Density, e.g. Density.uniform_box(box), "
            f"got {type(density).__name__}")
    n = int(n)
    if n < 0:
        raise ValueError(f"sample size must be nonnegative, got {n}")
    if n == 0:
        return PointCloud(density.dim, np.zeros((0, density.dim)))
    if density.kind == "uniform-box":
        return PointCloud(density.dim, density._uniform_in_box(n, rng))
    rows: list[np.ndarray] = []
    proposed = 0
    barren = 0  # consecutive batches without an acceptance
    while len(rows) < n:
        if barren == _MAX_BARREN_BATCHES:
            raise ConfigurationError(
                f"density accepted {len(rows)} of {proposed} proposals (rate "
                f"{len(rows) / proposed:.3g}), none in the last {barren * _REJECTION_BATCH}; "
                f"it has too little mass on its box {density.box} for bound {density.bound}")
        proposals = density._uniform_in_box(_REJECTION_BATCH, rng)
        accepts = rng.random(_REJECTION_BATCH) * density.bound
        before = len(rows)
        for point, u in zip(proposals, accepts):
            if u <= density(point):
                rows.append(point)
                if len(rows) == n:
                    break
        proposed += _REJECTION_BATCH
        barren = barren + 1 if len(rows) == before else 0
    return PointCloud(density.dim, np.asarray(rows))


def sample_poisson(intensity: float, density: Density, rng: np.random.Generator) -> PointCloud:
    """Poisson process with mean measure `intensity * density`.

    Realized as a Poisson-distributed count of i.i.d. density draws, so
    disjoint regions receive independent Poisson-distributed counts.
    """
    if not (intensity >= 0.0) or not math.isfinite(intensity):
        raise ValueError(f"intensity must be a finite nonnegative real, got {intensity}")
    count = int(rng.poisson(intensity))
    return sample_binomial(count, density, rng)


def sample_in_ball(count: int, dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the open ball of the given radius about the origin."""
    normals = rng.standard_normal((count, dim))
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return normals / norms * radii[:, None]
