"""Benchmark of cechlab: one workload per run, checked against an oracle.

    python3 bench/run.py --workload fig1-large --seed 0 --seconds 30 --trace 0

The program measured is the checkout's own `src/cechlab`. A run repeats
whole rounds of the workload's fixed calls while a typical round still
fits in `--seconds` (at least one round), then checks the first round's
outputs. With `--trace 0` it reports the end-to-end metrics, as times
scaled to a reference speed; with `--trace 1` it replays every call
layer by layer with spans and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workloads and metrics are described in
bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
MB = 1e6
# Median time of `reference()` on the reference machine (see README).
REFERENCE_S = 0.1


@dataclass
class Round:
    seconds: dict[str, float] = field(default_factory=dict)  # per call label
    ops: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # the whole round, replays included when traced
    spans: tuple[int, int] = (0, 0)  # this round's index range in the tracer
    problems: list[str] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # after each call, untraced


def reference(_values=np.random.default_rng(0).random(1_000_000)) -> float:
    """Seconds taken by fixed work that shares no code with cechlab.

    The shared machine's speed swings by a quarter within seconds to
    minutes, and the calls and this loop slow down together, so end-to-end
    times are scaled to the speed at which the loop takes REFERENCE_S. It
    mixes the two kinds of work the calls do: Python objects in dicts, and
    numpy array passes.
    """
    start = time.perf_counter()
    table = {(i, i + 1): i * i for i in range(150_000)}
    sum(table.values())
    for _ in range(2):
        float(np.sort(_values).sum() + (_values * 1.0001).sum())
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time for a fresh interpreter to import cechlab and build the inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import specs; specs.BUILDERS[{workload!r}]({seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(workload, tracer) -> Round:
    from workloads import Largest

    result = Round()
    largest = Largest()
    first_span = 0 if tracer is None else len(tracer.spans)
    start = time.perf_counter()
    for call in workload.calls:
        try:
            if tracer is None:
                began = time.perf_counter()
                output = call.run()
                result.seconds[call.label] = time.perf_counter() - began
            else:
                with tracer.span(call.layer) as span:
                    output = call.run()
                result.seconds[call.label] = span.seconds
        except Exception:  # a failed call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            result.attempted += call.planned
            result.failed += call.planned
            continue
        finally:
            if tracer is None:
                result.reference.append(reference())
        ops = call.count(output)
        result.ops[call.label] = ops
        result.outputs[call.label] = output
        result.attempted += ops
        if tracer is not None:
            if call.layer == "experiment":
                span.counts["experiment.clouds"] = ops
            else:
                span.counts["witness.witnesses"] = int(output is not None)
            result.problems += call.replay(output, tracer, span, largest)
    if tracer is not None and largest.complex is not None:
        with tracer.span("persistence.peak") as span:
            span.counts["persistence.peak_mb"] = largest.peak_bytes() / MB
    result.wall = time.perf_counter() - start
    result.spans = (first_span, 0 if tracer is None else len(tracer.spans))
    return result


def end_to_end(workload, rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    """Each call's mean time over the rounds at the reference speed, and the
    round they add up to.

    The machine switches between faster and slower stretches. Means of
    the calls and of the reference loop timed through the same stretches
    slow down in the same proportion whatever share of the run was slow;
    medians do not, since a median jumps when the slow share passes half.
    """
    speed = REFERENCE_S / statistics.fmean(t for r in rounds for t in r.reference)
    labels = [call.label for call in workload.calls if any(call.label in r.ops for r in rounds)]
    mean = {label: speed * statistics.fmean(r.seconds[label] for r in rounds if label in r.ops)
            for label in labels}
    ops = {label: rounds[0].ops.get(label, 0) for label in labels}
    wall = sum(mean.values())
    print(f"bench: speed factor {speed:.4f}; unscaled setup_s {setup_s:.4f}, "
          f"wall_s {wall / speed:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": (speed * setup_s, "s"),
        "wall_s": (wall, "s"),
        "clouds_per_s": (sum(ops.values()) / wall, "clouds/s"),
    }
    for label in ("n1e3", "n1e4", "n1e5"):
        per_trial = mean[label] / ops[label] if workload.per_n else wall / sum(ops.values())
        metrics[f"trial_s.{label}"] = (per_trial, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def per_layer(tracer, rounds: list[Round]) -> dict:
    """Per-layer metrics of each traced round, and their median over rounds."""
    per_round = []
    for rnd in rounds:
        spans = tracer.spans[rnd.spans[0]:rnd.spans[1]]
        busy: dict[str, float] = {}
        counts: dict[str, float] = {}
        experiment_ids = {s.id for s in spans if s.name == "experiment"}
        replayed = 0.0  # layer time replayed from experiment calls
        peak = 0.0
        for s in spans:
            busy[s.name] = busy.get(s.name, 0.0) + s.seconds
            if s.parent in experiment_ids and s.name != "geometry":
                replayed += s.seconds
            for key, value in s.counts.items():
                if key == "persistence.peak_mb":
                    peak = max(peak, value)
                else:
                    counts[key] = counts.get(key, 0) + value
        ops = busy.get("experiment", 0.0) + busy.get("witness", 0.0)
        get = busy.get
        values = {
            "sampling.busy_s": (get("sampling", 0.0), "s"),
            "geometry.graph_busy_s": (get("geometry", 0.0), "s"),
            "filtration.self_s": (get("filtration", 0.0) - get("geometry", 0.0), "s"),
            "persistence.busy_s": (get("persistence", 0.0), "s"),
            "persistence.peak_mb": (peak, "MB"),
            "properties.busy_s": (get("properties", 0.0), "s"),
            "experiment.self_s": (get("experiment", 0.0) - replayed, "s"),
            "witness.busy_s": (get("witness", 0.0), "s"),
            "trace.overhead_pct": (100.0 * (rnd.wall - ops) / ops, "%"),
        }
        for key in ("sampling.points", "geometry.edges", "filtration.simplices_d1",
                    "filtration.simplices_d2", "persistence.columns",
                    "persistence.useful_columns", "persistence.finite_pairs",
                    "properties.isolated_cycles", "experiment.clouds", "witness.witnesses"):
            values[key] = (counts.get(key, 0), "count")
        per_round.append(values)
    return {name: (statistics.median(v[name][0] for v in per_round), unit)
            for name, (_, unit) in per_round[0].items()}


def check(workload, rounds: list[Round]) -> list[str]:
    """Oracle checks on the first output of each call, and repeatability across rounds."""
    problems = [p for r in rounds for p in r.problems]
    for call in workload.calls:
        outputs = [r.outputs[call.label] for r in rounds if call.label in r.outputs]
        if not outputs:
            continue
        problems += [f"{call.label}: {p}" for p in call.check(outputs[0])]
        first = call.summary(outputs[0])
        if any(call.summary(o) != first for o in outputs[1:]):
            problems.append(f"{call.label}: a later round gave another result")
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 62:
        parser.error("--seed must be a nonnegative integer below 2**62")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cechlab" / "__init__.py").is_file():
        print(f"bench: no cechlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cechlab
    if Path(cechlab.__file__).resolve().parent != SRC / "cechlab":
        print(f"bench: imported cechlab from {cechlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    workloads.warm_up()
    reference()  # its first call alone is slow
    tracer = Tracer() if args.trace else None
    rounds: list[Round] = []
    start = time.perf_counter()
    # Whole rounds only: the next one starts if a typical round still fits.
    while not rounds or (time.perf_counter() - start
                         + statistics.median(r.wall for r in rounds) <= args.seconds):
        rounds.append(run_round(workload, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    problems = check(workload, rounds)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(workload, rounds, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(tracer, rounds)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    for number, rnd in enumerate(rounds):
        calls = " ".join(f"{label} {seconds:.3f}" for label, seconds in rnd.seconds.items())
        print(f"bench: round {number}: {calls} (s)", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds", file=sys.stderr)
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
