"""Random point clouds from bounded densities, with reproducible streams.

All randomness flows through numpy's Philox generator, a counter-based
bit generator that supports cheap stream splitting: `stream(seed, i, t)`
yields an independent generator for, say, grid index i and trial t, so
trials can run in any order (or in parallel) and still reproduce.
A Philox stream is fully given by its 128-bit key, which numpy's
`SeedSequence` hashes from (seed, i, t). `_streams` is the batch form of
`stream` for a range of trials: it computes all their keys in one numpy
pass of that hash, bit for bit `SeedSequence`'s, and hands out one
generator whose Philox is reset to each trial's key, counter 0 and empty
buffer in turn, so each trial draws exactly what `stream` would give it.
Every draw goes through `_sample_stack`, which draws the clouds of many
trials as one stack of points, each from its own generator;
`sample_binomial` and `sample_poisson` return its single cloud.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


def _streams(seed: int, path: tuple[int, ...], trials: range) -> Iterator[np.random.Generator]:
    """`stream(seed, *path, t)` for each t in `trials`, as one generator reset before each.

    The generator handed out for trial t draws what `stream(seed, *path, t)`
    draws, until the next one is pulled; one Philox serves the whole range.
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0, empty buffer
    for key in _stream_keys(seed, path, trials):
        state["state"]["key"] = key
        bits.state = state
        yield rng


def _stream_keys(seed: int, path: tuple[int, ...], trials: range) -> np.ndarray:
    """Philox keys of `stream(seed, *path, t)` for t in `trials`, one (2,) uint64 row each.

    Row t is `SeedSequence(seed, spawn_key=(*path, t)).generate_state(2, np.uint64)`.
    The entropy words are the seed's 32-bit words, padded with zeros to the
    pool size 4, then each path entry's words and t's, least significant first
    (0 is one word). Every word but t's is the same for the whole range, so
    those are hashed into the pool as Python ints and only t's one or two words
    as uint32 arrays, whose arithmetic wraps as numpy's C code does.
    """
    # SeedSequence's constants (O'Neill's seed_seq_fe): the hash of the entropy
    # into the pool, the mix of two pool words, the hash of the pool into the key.
    init_a, mult_a, init_b, mult_b = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
    mix_l, mix_r, mask = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
    const = init_a

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult_a & mask
        value = value * const & mask
        return value ^ value >> 16

    def mix(x, y):
        value = ((mix_l * x & mask) - (mix_r * y & mask)) & mask
        return value ^ value >> 16

    head = _words(seed)
    head += [0] * (4 - len(head))
    for p in path:
        head += _words(p)
    pool = [hashmix(word) for word in head[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in head[4:]:
        pool = [mix(x, hashmix(word)) for x in pool]
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    low, high = (t & np.uint64(mask)).astype(np.uint32), (t >> np.uint64(32)).astype(np.uint32)
    pool = [mix(x, hashmix(low)) for x in pool]
    two_words = high > 0
    if two_words.any():
        pool = [np.where(two_words, mix(x, hashmix(high)), x) for x in pool]
    out = []
    const = init_b
    for x in pool:
        x = x ^ const
        const = const * mult_b & mask
        x = x * const & mask
        out.append((x ^ x >> 16).astype(np.uint64))
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


def _words(value: int) -> list[int]:
    """A nonnegative `value`'s 32-bit words, least significant first; 0 is the one word 0."""
    value = int(value)
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


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

    def _values(self, points: np.ndarray) -> list[float]:
        """The density at each row of `points`, as `self(point)` gives it.

        A uniform box tests all rows at once; a custom evaluator is still
        called one point at a time.
        """
        if self.kind == "uniform-box":
            lows, highs = np.array(self.box).T
            inside = ((lows <= points) & (points <= highs)).all(axis=1)
            return np.where(inside, 1.0 / self.box_volume(), 0.0).tolist()
        return [self(point) for point in points]

    def _onto_box(self, units: np.ndarray) -> np.ndarray:
        """Rows of unit draws in [0, 1)^d mapped onto the box."""
        lows = np.array([lo for lo, _ in self.box])
        highs = np.array([hi for _, hi in self.box])
        return lows + units * (highs - lows)


def sample_binomial(n: int, density: Density, rng: np.random.Generator) -> PointCloud:
    """n i.i.d. points from the density."""
    _check_density(density)
    n = int(n)
    if n < 0:
        raise ValueError(f"sample size must be nonnegative, got {n}")
    points, _ = _sample_stack(None, density, [rng], anchors=n)
    return PointCloud(density.dim, points)


def _check_density(density: Density) -> None:
    if not isinstance(density, Density):
        raise ConfigurationError(
            f"density must be a Density, e.g. Density.uniform_box(box), "
            f"got {type(density).__name__}")


def _rejected(n: int, density: Density, rng: np.random.Generator) -> np.ndarray:
    """n points of a custom density by rejection against the uniform proposal on its box."""
    rows: list[np.ndarray] = []
    proposed = 0
    barren = 0  # consecutive batches without an acceptance
    while len(rows) < n:
        if barren == _MAX_BARREN_BATCHES:
            raise ConfigurationError(
                f"density accepted {len(rows)} of {proposed} proposals (rate "
                f"{len(rows) / proposed:.3g}), none in the last {barren * _REJECTION_BATCH}; "
                f"it has too little mass on its box {density.box} for bound {density.bound}")
        proposals = density._onto_box(rng.random((_REJECTION_BATCH, density.dim)))
        accepts = rng.random(_REJECTION_BATCH) * density.bound
        before = len(rows)
        for point, u in zip(proposals, accepts):
            if u <= density(point):
                rows.append(point)
                if len(rows) == n:
                    break
        proposed += _REJECTION_BATCH
        barren = barren + 1 if len(rows) == before else 0
    return np.asarray(rows)


def _check_intensity(intensity: float) -> None:
    if not (intensity >= 0.0) or not math.isfinite(intensity):
        raise ValueError(f"intensity must be a finite nonnegative real, got {intensity}")


def sample_poisson(intensity: float, density: Density, rng: np.random.Generator) -> PointCloud:
    """Poisson process with mean measure `intensity * density`.

    Realized as a Poisson-distributed count of i.i.d. density draws, so
    disjoint regions receive independent Poisson-distributed counts.
    """
    _check_intensity(intensity)
    points, _ = _sample_stack(intensity, density, [rng])
    return PointCloud(density.dim, points)


def _sample_stack(intensity: float | None, density: Density, rngs: Iterable[np.random.Generator],
                  anchors: int = 0) -> tuple[np.ndarray, list[int]]:
    """One cloud per generator, stacked one after another, and each one's size.

    Each generator draws, in turn, `anchors` i.i.d. points and then, unless
    `intensity` is None, a Poisson count of mean `intensity` and that many
    points; a cloud is its anchors followed by its Poisson points. A uniform
    box draws its points as `rng.random((count, d))` and maps all the unit
    draws of the batch onto the box in one `Density._onto_box` pass, which is
    elementwise, so a cloud's points do not depend on its batch; a custom
    density takes its rejection path (`_rejected`) per cloud. No
    `PointCloud` is made.
    """
    _check_density(density)
    if intensity is not None:
        _check_intensity(intensity)
    box = density.kind == "uniform-box"
    draws: list[np.ndarray] = []

    def drawn(count: int, rng: np.random.Generator) -> int:
        if count:
            draws.append(rng.random((count, density.dim)) if box
                         else _rejected(count, density, rng))
        return count

    sizes = []
    for rng in rngs:
        size = drawn(anchors, rng)
        if intensity is not None:
            size += drawn(int(rng.poisson(intensity)), rng)
        sizes.append(size)
    points = (draws[0] if len(draws) == 1 else np.concatenate(draws) if draws
              else np.zeros((0, density.dim)))
    return (density._onto_box(points) if box else points), sizes


def sample_in_ball(count: int, dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the open ball of the given radius about the origin."""
    normals = rng.standard_normal((count, dim))
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return normals / norms * radii[:, None]
