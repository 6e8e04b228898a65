"""Command line interface.

Subcommands cover sampling, persistence, property counting, the Palm
and mu diagnostics, witness search, and the scaling experiments. Every
run writes a JSON manifest (command, parameters, versions) beside its
outputs so results can be reproduced from the artifact alone.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from .errors import AuditError, ConfigurationError
from .experiment import (ExperimentSpec, audit_csv, fit_csv, lower_bound_audit,
                         results_csv, run_experiment, write_manifest)
from .filtration import build_cech_filtration
from .geometry import PointCloud
from .persistence import GF2, FieldSpec, compute_persistence, persistent_betti
from .properties import (SmallGraph, SubsetPropertyDescriptor, comp, conn, estimate_mu,
                         iso_graph, palm_check, sep, spread, subset_count, trivial_context,
                         upsilon, zeta)
from .render import render_balls
from .sampling import Density, sample_binomial, sample_poisson, stream
from .witness import bracket_m, construct_witness, search_m

_GRAPHS = {
    "k2": lambda: SmallGraph.complete(2),
    "k3": lambda: SmallGraph.complete(3),
    "k4": lambda: SmallGraph.complete(4),
    "triangle": lambda: SmallGraph.complete(3),
    "p3": lambda: SmallGraph.path(3),
    "c4": lambda: SmallGraph.cycle(4),
}

_FIG1_N_GRID = (100.0, 1000.0, 10000.0)
_FIG1_BOX = ((-1.0, 1.0), (-1.0, 1.0))


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigurationError(f"box axis {part!r} is not 'lo,hi'")
        lo, hi = (float(v) for v in pieces)
        pairs.append((lo, hi))
    return tuple(pairs)


def _density_from(args: argparse.Namespace) -> Density:
    if getattr(args, "box", None):
        return Density.uniform_box(_parse_box(args.box))
    return Density.unit_cube(args.d)


def _field_from(args: argparse.Namespace) -> FieldSpec:
    prime = getattr(args, "field", 2)
    return GF2 if prime == 2 else FieldSpec(prime)


def _out_dir(args: argparse.Namespace) -> Path:
    """The manifest's directory: `--out-dir` when given, else the directory of `--out`.

    Both directories are created if missing.
    """
    primary = getattr(args, "out", None)
    if primary:
        Path(primary).parent.mkdir(parents=True, exist_ok=True)
    out_dir = getattr(args, "out_dir", None)
    base = Path(out_dir) if out_dir is not None else Path(primary).parent if primary else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    return base


def _manifest(args: argparse.Namespace, command: str, parameters: dict) -> None:
    write_manifest(_out_dir(args) / f"{command}-manifest.json", command, parameters)


def _build_property(args: argparse.Namespace) -> SubsetPropertyDescriptor:
    """The chosen property in its context: isolation if asked for, else the trivial one."""
    name = args.property
    r = args.r
    field_spec = _field_from(args)
    if name == "iso":
        gamma = _GRAPHS[args.graph]()
        descriptor = iso_graph(gamma, r, gamma.n)
    elif name == "conn":
        descriptor = conn(r, args.p)
    elif name == "spread":
        descriptor = spread(r, args.p)
    elif name == "comp":
        descriptor = comp(r, args.p)
    elif name == "zeta":
        descriptor = zeta(r, args.p, args.theta, args.k, field_spec)
    elif name == "upsilon":
        descriptor = upsilon(r, args.p, args.theta, args.k, field_spec)
    else:
        raise ConfigurationError(f"unknown property {name!r}")
    if isinstance(descriptor, SubsetPropertyDescriptor):
        if args.isolated:
            raise ConfigurationError(f"property {name!r} is already isolated")
        return descriptor
    if not args.isolated:
        return trivial_context() * descriptor
    return sep(args.theta * r if name == "zeta" else r) * descriptor


def _add_property_args(parser: argparse.ArgumentParser, default_r: float | None = None) -> None:
    parser.add_argument("--property", required=True,
                        choices=["iso", "conn", "spread", "comp", "zeta", "upsilon"])
    if default_r is None:
        parser.add_argument("--r", type=float, required=True, help="property scale")
    else:
        parser.add_argument("--r", type=float, default=default_r, help="property scale")
    parser.add_argument("--p", type=int, default=2, help="arity (subset size)")
    parser.add_argument("--theta", type=float, default=1.0)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--graph", choices=sorted(_GRAPHS), default="k2",
                        help="shape for --property iso")
    parser.add_argument("--isolated", action="store_true",
                        help="require no other point within the separation range")
    parser.add_argument("--field", type=int, default=2)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    density = _density_from(args)
    rng = stream(args.seed, 0)
    if args.binomial:
        cloud = sample_binomial(int(args.n), density, rng)
    else:
        cloud = sample_poisson(args.n, density, rng)
    cloud.save(args.out)
    _manifest(args, "sample", {"n": args.n, "binomial": args.binomial, "d": args.d,
                               "box": [list(b) for b in density.box],
                               "seed": args.seed, "out": str(args.out)})
    print(f"sampled {len(cloud)} points in R^{density.dim} -> {args.out}")
    return 0


def _cmd_persistence(args: argparse.Namespace) -> int:
    cloud = PointCloud.load(args.cloud)
    max_dim = args.max_dim if args.max_dim is not None else cloud.dim
    complex_ = build_cech_filtration(cloud, args.r_max, max_dim)
    diagram = compute_persistence(complex_, _field_from(args))
    diagram.save_csv(args.out)
    _manifest(args, "persistence", {"cloud": str(args.cloud), "r_max": args.r_max,
                                    "max_dim": max_dim, "field": args.field,
                                    "out": str(args.out)})
    print(f"{len(diagram.intervals)} intervals -> {args.out}")
    return 0


def _cmd_betti(args: argparse.Namespace) -> int:
    cloud = PointCloud.load(args.cloud)
    field_spec = _field_from(args)
    value = persistent_betti(cloud, args.r, args.theta, args.k, field_spec)
    _manifest(args, "betti", {"cloud": str(args.cloud), "r": args.r, "k": args.k,
                              "theta": args.theta, "field": args.field})
    print(value)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    cloud = PointCloud.load(args.cloud)
    value = subset_count(_build_property(args), cloud)
    _manifest(args, "count", {"cloud": str(args.cloud), "property": args.property,
                              "r": args.r, "p": args.p, "theta": args.theta,
                              "k": args.k, "graph": args.graph,
                              "isolated": args.isolated, "field": args.field})
    print(value)
    return 0


def _cmd_mu(args: argparse.Namespace) -> int:
    descriptor = _build_property(args).base  # the context washes out in the limit
    density = _density_from(args)
    estimate = estimate_mu(descriptor, density, args.samples, stream(args.seed, 0))
    _manifest(args, "mu", {"property": args.property, "p": args.p,
                           "theta": args.theta, "k": args.k, "graph": args.graph,
                           "d": args.d, "box": [list(b) for b in density.box],
                           "field": args.field, "samples": args.samples,
                           "seed": args.seed})
    print(f"mu = {estimate.value:.6g} +/- {estimate.std_error:.2g} (1 SE)")
    return 0


def _cmd_palm(args: argparse.Namespace) -> int:
    density = _density_from(args)
    result = palm_check(_build_property(args), args.n, density, args.trials,
                        stream(args.seed, 0), rhs_trials=args.rhs_trials)
    _manifest(args, "palm", {"property": args.property, "r": args.r, "p": args.p,
                             "theta": args.theta, "k": args.k, "graph": args.graph,
                             "isolated": args.isolated, "n": args.n, "d": args.d,
                             "box": [list(b) for b in density.box], "field": args.field,
                             "trials": args.trials, "rhs_trials": args.rhs_trials,
                             "seed": args.seed})
    print(f"lhs = {result.lhs:.6g} +/- {result.lhs_se:.2g}")
    print(f"rhs = {result.rhs:.6g} +/- {result.rhs_se:.2g}")
    print("agree within 3 SE" if result.agree else "DISAGREE beyond 3 SE")
    return 0 if result.agree else 2


def _cmd_witness(args: argparse.Namespace) -> int:
    witness = construct_witness(args.k, args.theta, _field_from(args),
                                max_rounds=args.max_rounds)
    witness.save(args.out)
    _manifest(args, "witness", {"k": args.k, "theta": args.theta,
                                "field": args.field, "max_rounds": args.max_rounds,
                                "out": str(args.out)})
    print(f"witness on {len(witness.points)} points: r = {witness.r:.6g}, "
          f"R = {witness.R:.6g}, rank = {witness.verified_rank} -> {args.out}")
    return 0


def _cmd_search_m(args: argparse.Namespace) -> int:
    rng = stream(args.seed, 0)
    field_spec = _field_from(args)
    params = {"d": args.d, "k": args.k, "theta": args.theta, "trials": args.trials,
              "seed": args.seed, "p": args.p, "max_arity": args.max_arity,
              "refine": not args.no_refine, "field": args.field}
    _manifest(args, "search-m", params)
    if args.p is not None:
        witness = search_m(args.d, args.k, args.theta, args.p, args.trials, rng,
                           refine=not args.no_refine, field_spec=field_spec)
        if witness is None:
            print(f"no {args.p}-point witness in {args.trials} trials "
                  f"(theta={args.theta:g}, k={args.k})")
            return 0
        print(f"{args.p}-point witness: r = {witness.r:.6g}, rank = {witness.verified_rank}")
    else:
        bracket = bracket_m(args.d, args.k, args.theta, args.trials, rng,
                            max_arity=args.max_arity, field_spec=field_spec)
        if bracket is None:
            print(f"no witness up to arity {args.max_arity or args.k + 6} "
                  f"in {args.trials} trials per arity")
            return 0
        witness = bracket.witness
        print(f"m <= {bracket.upper}; no witness found at arities "
              f"<= {bracket.lower_searched} ({args.trials} trials each)")
    if args.out:
        witness.save(args.out)
        print(f"witness -> {args.out}")
    return 0


def _spec_from_config(args: argparse.Namespace) -> tuple[ExperimentSpec, int | None]:
    settings: dict = {}
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigurationError(f"config file {args.config} not found")
        if parser.has_section("experiment"):
            exp = parser["experiment"]
            for key in ("d", "k", "trials", "seed", "field", "max_trials", "m"):
                if key in exp:
                    settings[key] = exp.getint(key)
            for key in ("theta", "c", "q", "target_rel_se"):
                if key in exp:
                    settings[key] = exp.getfloat(key)
            if "n_grid" in exp:
                settings["n_grid"] = tuple(float(v) for v in exp["n_grid"].split(","))
        if parser.has_section("density") and "box" in parser["density"]:
            settings["box"] = parser["density"]["box"]

    def pick(key, default=None):
        value = getattr(args, key, None)
        if value is not None:
            return value
        return settings.get(key, default)

    d = pick("d", 2)
    box = pick("box")
    density = Density.uniform_box(_parse_box(box)) if box else Density.unit_cube(d)
    prime = pick("field", 2)
    spec = ExperimentSpec(
        d=d, k=pick("k", 1), theta=pick("theta", 1.0), density=density,
        c=pick("c", 1.0), q=pick("q", -0.6),
        n_grid=tuple(pick("n_grid", (500.0, 1000.0, 2000.0, 4000.0, 8000.0))),
        trials=pick("trials", 20), seed=pick("seed", 0),
        field=GF2 if prime == 2 else FieldSpec(prime),
        max_trials=pick("max_trials"), target_rel_se=pick("target_rel_se", 0.10))
    return spec, pick("m")


def _report_experiment(result, out_dir: Path) -> None:
    (out_dir / "results.csv").write_text(results_csv(result), encoding="utf-8")
    (out_dir / "fit.csv").write_text(fit_csv(result), encoding="utf-8")
    for row in result.rows:
        print(f"n={row.n:g} r={row.r:.6g} mean={row.mean_betti:.6g} "
              f"se={row.se:.3g} trials={row.trials}")
    if result.fit is not None:
        line = (f"fitted exponent {result.fit.slope:.4f} "
                f"[{result.fit.ci_lo:.4f}, {result.fit.ci_hi:.4f}]")
        if result.predicted is not None:
            line += f", predicted {result.predicted:.4f}"
        print(line)
    else:
        print(f"no exponent fit: {result.fit_note}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec, m = _spec_from_config(args)
    out_dir = _out_dir(args)
    result = run_experiment(spec, m=m)
    _report_experiment(result, out_dir)
    write_manifest(out_dir / "experiment-manifest.json", "experiment",
                   dict(spec.parameters(), m=m))
    print(f"results -> {out_dir / 'results.csv'}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    spec, m = _spec_from_config(args)
    if m is None:
        raise ConfigurationError("the audit needs the minimal cycle arity; pass --m")
    out_dir = _out_dir(args)
    table = lower_bound_audit(spec, m, dump_dir=out_dir)
    (out_dir / "audit.csv").write_text(audit_csv(table), encoding="utf-8")
    write_manifest(out_dir / "audit-manifest.json", "audit",
                   dict(spec.parameters(), m=m))
    print(f"{len(table.rows)} clouds audited, zero violations; "
          f"mean isolated cycles {table.mean_isolated_cycles():.4g}, "
          f"mean persistent Betti {table.mean_persistent_betti():.4g}, "
          f"equal on {table.equality_fraction():.1%}")
    print(f"audit table -> {out_dir / 'audit.csv'}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    density = Density.uniform_box(_FIG1_BOX)
    spec = ExperimentSpec(d=2, k=1, theta=1.4, density=density, c=2.6,
                          q=-2.0 / 3.0, n_grid=_FIG1_N_GRID, trials=args.trials,
                          seed=args.seed)
    out_dir = _out_dir(args)
    result = run_experiment(spec, m=4)
    _report_experiment(result, out_dir)
    means = [row.mean_betti for row in result.rows]
    if min(means) > 0.0:
        print(f"max/min ratio of the per-n means = {max(means) / min(means):.3f}")
    for i, row in enumerate(result.rows):
        cloud = sample_poisson(row.n, density, stream(spec.seed, i, 0))
        frame = out_dir / f"balls-n{int(row.n)}.svg"
        render_balls(cloud, row.r, spec.theta, frame, box=_FIG1_BOX)
        print(f"frame n={row.n:g} ({len(cloud)} points) -> {frame}")
    write_manifest(out_dir / "figure1-manifest.json", "figure1",
                   dict(spec.parameters(), m=4))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    cloud = PointCloud.load(args.cloud)
    box = _parse_box(args.box) if args.box else None
    if box is not None and len(box) != 2:
        raise ConfigurationError("rendering box must have exactly two axes")
    render_balls(cloud, args.r, args.theta, args.out, box=box)
    _manifest(args, "render", {"cloud": str(args.cloud), "r": args.r,
                               "theta": args.theta, "box": args.box,
                               "out": str(args.out)})
    print(f"{len(cloud)} disk pairs -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cechlab",
        description="Persistent Betti numbers of random Cech complexes: "
                    "sampling, persistence, property counts, witnesses, and "
                    "scaling experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Poisson or binomial cloud")
    p.add_argument("--n", type=float, required=True, help="intensity (or exact size)")
    p.add_argument("--binomial", action="store_true", help="draw exactly n points")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--box", help="sampling box as 'x0,x1;y0,y1;...'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("persistence", help="persistence diagram of a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_persistence)

    p = sub.add_parser("betti", help="(persistent) Betti number of a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("count", help="count subsets with a local property")
    p.add_argument("--cloud", required=True)
    _add_property_args(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("mu", help="Monte Carlo estimate of the limit constant mu")
    _add_property_args(p, default_r=1.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--box", help="density box as 'x0,x1;y0,y1;...'")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("palm", help="empirical Palm identity check")
    _add_property_args(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--box", help="density box as 'x0,x1;y0,y1;...'")
    p.add_argument("--n", type=float, required=True, help="Poisson intensity")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--rhs-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_palm)

    p = sub.add_parser("witness", help="construct a persistent-cycle witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--max-rounds", type=int, default=12)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("search-m", help="random search for minimal cycle arity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--p", type=int, default=None, help="fixed arity (else bracket)")
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--no-refine", action="store_true",
                   help="disable local refinement of sampled configurations")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="save a found witness here")
    p.add_argument("--out-dir", default=None,
                   help="write the manifest here (default: beside --out, else .)")
    p.set_defaults(handler=_cmd_search_m)

    for name, handler, extra in (("experiment", _cmd_experiment, "scaling experiment"),
                                 ("audit", _cmd_audit, "isolated-cycle lower-bound audit")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", default=None, help="INI file with [experiment]/[density]")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--n-grid", dest="n_grid", default=None,
                       type=lambda s: tuple(float(v) for v in s.split(",")))
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--field", type=int, default=None)
        p.add_argument("--max-trials", dest="max_trials", type=int, default=None)
        p.add_argument("--target-rel-se", dest="target_rel_se", type=float, default=None)
        p.add_argument("--m", type=int, default=None, help="minimal cycle arity")
        p.add_argument("--box", default=None)
        p.add_argument("--out-dir", default=".")
        p.set_defaults(handler=handler)

    p = sub.add_parser("figure1", help="theta=1.4 decay run with rendered frames")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="figure1")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("render", help="draw r and theta*r balls of a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--box", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
