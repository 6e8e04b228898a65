"""The inputs of each workload, built from the workload seed with cechlab alone.

Building them is what `setup_s` times in a fresh interpreter, after
`import cechlab`, so this module imports nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass

from cechlab import Density, ExperimentSpec

# fig1-large: trials per call at each n. The one n=1e5 trial is the largest
# share of a round (about 45%). The calls at n=1e3 and 1e4 last 2-2.5 s
# each, because the shared machine's speed swings by 10-20% within
# seconds, so a shorter call samples one swing and its mean over the few
# rounds of a run stays unsteady.
FIG1_TRIALS = {"n1e3": (1e3, 24), "n1e4": (1e4, 4), "n1e5": (1e5, 1)}

# audit-6: trials per criterion-6 spec (the acceptance test runs 8500 and 1500).
# Mostly m=3 clouds: m=4 cloud times are heavy-tailed (a few of them take
# 0.5 s against a median of 0.05 s), so each m=4 cloud adds far more
# seed-to-seed spread to a round than an m=3 cloud does.
AUDIT_TRIALS = (500, 8)

# arity-search: one 3-point search and four 4-point searches per round.
SEARCH_THETA = 1.2
SEARCH_3_TRIALS = 131_072
SEARCH_4_TRIALS = 65_536
SEARCH_4_COUNT = 4


@dataclass(frozen=True)
class Search:
    """One `search_m` call; its generator is `stream(seed, *path)`."""

    label: str
    p: int
    trials: int
    seed: int
    path: tuple[int, ...]
    d: int = 2
    k: int = 1
    theta: float = SEARCH_THETA


def fig1(seed: int) -> dict[str, ExperimentSpec]:
    """The figure-1 configuration at n = 1e3, 1e4 and 1e5, one spec per n."""
    box = Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)])
    return {label: ExperimentSpec(d=2, k=1, theta=1.4, density=box, c=2.6, q=-2.0 / 3.0,
                                  n_grid=(n,), trials=trials, seed=seed)
            for label, (n, trials) in FIG1_TRIALS.items()}


def audit_6(seed: int) -> dict[str, tuple[ExperimentSpec, int]]:
    """The two criterion-6 audit specs with their arity m, fewer trials."""
    square = Density.unit_cube(2)
    trials_a, trials_b = AUDIT_TRIALS
    return {
        "m3": (ExperimentSpec(d=2, k=1, theta=1.0, density=square, c=0.6, q=-0.6,
                              n_grid=(20.0,), trials=trials_a, seed=2 * seed), 3),
        "m4": (ExperimentSpec(d=2, k=1, theta=1.4, density=square, c=0.65, q=-0.6,
                              n_grid=(15.0,), trials=trials_b, seed=2 * seed + 1), 4),
    }


def arity_search(seed: int) -> dict[str, Search]:
    """An empty 3-point search and four 4-point searches at theta=1.2."""
    searches = [Search("p3", 3, SEARCH_3_TRIALS, seed, (3,))]
    searches += [Search(f"p4.{j}", 4, SEARCH_4_TRIALS, seed, (4, j))
                 for j in range(SEARCH_4_COUNT)]
    return {s.label: s for s in searches}


BUILDERS = {
    "fig1-large": fig1,
    "audit-6": audit_6,
    "arity-search": arity_search,
}
