"""Command-line front end.

Subcommands:
  simulate   one grid-line point, aggregated over reps
  sweep      run a shipped preset (figure1, tradeoff-sweep, no-tradeoff) or
             a config-file suite, and write CSV/JSON/plot outputs
  oracle     print a grid point's oracle columns (point: a_min, pk_delay and
             the exact gginf_age), or a family's heavy-tail sweep of E[S^2],
             P(S > x) and E[S 1{S<x}] (tail-table), as CSV on stdout
"""

from __future__ import annotations

import argparse
import sys

from .distributions import canonical_family
from .engine import parse_grid_line
from .errors import DegenerateSampleError, ParameterError, StabilityError
from . import experiments, oracles


def _cmd_simulate(args) -> int:
    # each flag is read as the config key it maps to is; the point is the suite's one grid line
    cfg = experiments._read_suite({
        "arrival.rate": args.lam,
        "service.rate": args.mu,
        "run.n_arrivals": args.n_arrivals,
        "run.n_reps": args.n_reps,
        "run.base_seed": args.base_seed,
        "run.warmup_fraction": args.warmup,
        "grid.points": [args.point],
        "scalarization.nu_grid": "0",
    })
    (point,) = experiments.run_suite(cfg, parallel=not args.serial)
    if args.json:
        import json

        print(json.dumps(point.to_json_dict(), indent=2, allow_nan=False))
    else:
        print(experiments.csv_text([point]), end="")
    return 0


def _cmd_sweep(args) -> int:
    overrides = args.set or []
    if args.suite in experiments.PRESETS:
        cfg = experiments.load_preset(args.suite, overrides)
    else:
        cfg = experiments.load_config(args.suite, overrides)
    paths = experiments.run_and_emit(cfg, args.out_dir, parallel=not args.serial)
    for p in paths:
        print(p)
    return 0


def _cmd_oracle(args) -> int:
    kind = args.oracle_kind
    lam = experiments._read_number("arrival.rate", args.lam)
    mu = experiments._read_number("service.rate", args.mu)
    note = None
    if kind == "point":
        point = parse_grid_line(args.point, mu, lam)
        (cells,) = experiments.point_oracles([point])
        row = {**experiments.point_columns(point), **cells}
        header = ",".join(row)
        rows = [tuple(row.values())]
    else:  # tail-table
        shapes = experiments.parse_number_list(args.shapes) if args.shapes else []
        xs = experiments.parse_number_list(args.xs)
        family = canonical_family(args.family)
        m2, tail, trunc, diverging, decreasing = oracles.tail_decay_table(family, shapes, xs, mu, lam)
        header = "family,shape,second_moment,x,tail_prob,truncated_mean"
        rows = [
            (family, shape, m2[i], x, tail[i, j], trunc[i, j])
            for i, shape in enumerate(shapes or [None])
            for j, x in enumerate(xs)
        ]
        note = f"# second_moment_diverging={diverging} columns_decreasing={decreasing}"
    print(header)
    for row in rows:
        print(",".join(experiments.format_cell(cell) for cell in row))
    if note is not None:
        print(note, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agedelay",
        description="Age-of-information vs. delay simulator and oracle toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # numbers stay text here: the commands read each as its config key is read, so a refusal names its setting
    rates = argparse.ArgumentParser(add_help=False)
    rates.add_argument("--lam", "--lambda", dest="lam", required=True, help="generation rate")
    rates.add_argument("--mu", required=True, help="service rate")

    sim = sub.add_parser("simulate", parents=[rates], help="run one configuration point")
    sim.add_argument("point", help="grid line, e.g. 'lcfs-p pareto alpha=1.5' or 'fcfs det arrival=det'")
    sim.add_argument("--n-arrivals", default="100000")
    sim.add_argument("--n-reps", default="4")
    sim.add_argument("--base-seed", default="0")
    sim.add_argument("--warmup", default="0.1")
    sim.add_argument("--serial", action="store_true", help="disable concurrent replications")
    sim.add_argument("--json", action="store_true", help="emit JSON instead of a CSV row")
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a shipped preset or a config-file suite")
    presets = ", ".join(experiments.PRESETS)
    sweep.add_argument("suite", help=f"preset ({presets}) or INI config path; a preset wins over a same-named file")
    sweep.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config value, e.g. run.n_reps=2"
    )
    sweep.add_argument("--out-dir", default="results", help="directory for output files")
    sweep.add_argument("--serial", action="store_true", help="disable concurrent execution")
    sweep.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="print a grid point's oracle columns or a family's heavy-tail sweep as CSV")
    okind = oracle.add_subparsers(dest="oracle_kind", required=True)

    pt = okind.add_parser(
        "point",
        parents=[rates],
        help="the oracle columns of one grid point's result row: a_min, pk_delay, exact gginf_age",
    )
    pt.add_argument("point", help="grid line, e.g. 'fcfs det arrival=det'")

    tail = okind.add_parser("tail-table", parents=[rates], help="second-moment, tail and truncated-mean sweep table")
    tail.add_argument("--family", required=True)
    tail.add_argument("--shapes", default="", help="shape grid, ordered toward the limit")
    tail.add_argument("--xs", required=True, help="thresholds, each >= 1/lambda")

    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, StabilityError, DegenerateSampleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
