"""Command line front end for the experiment harness.

One subcommand per experiment kind, with a flag for each grid-point field
that kind reads, typed (or given its choices) by `harness.FIELDS`.  A JSON
config file of the same kind supplies the grid; individual flags override
config fields (or, without a config, define a single grid point).  A
completed sweep exits 0 even when some trials ended in error rows; config
problems, a bad field value among them, exit 2 before any trial runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import FIELDS, KINDS, ExperimentConfig, emit_report, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracerecon",
        description="Run seeded trace-reconstruction experiments and emit reports.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in sorted(KINDS):
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--trials", type=int, help="trials per grid point")
        p.add_argument("--out", help="report path")
        p.add_argument("--format", choices=("csv", "jsonl"), dest="fmt")
        p.add_argument("--workers", type=int)
        for name in KINDS[kind].fields:
            flag, spec = "--" + name.replace("_", "-"), FIELDS[name][0]
            if isinstance(spec, tuple):
                p.add_argument(flag, choices=spec, dest=name)
            else:
                p.add_argument(flag, type=spec, dest=name)
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
        if config.kind != args.kind:
            raise ValueError(f"{args.config} configures {config.kind!r}, not {args.kind!r}")
    else:
        config = ExperimentConfig(kind=args.kind, grid=[{}])
    for attr, value in (
        ("seed", args.seed),
        ("trials", args.trials),
        ("out", args.out),
        ("format", args.fmt),
        ("workers", args.workers),
    ):
        if value is not None:
            setattr(config, attr, value)
    overrides = {
        key: getattr(args, key)
        for key in FIELDS
        if getattr(args, key, None) is not None
    }
    for point in config.grid:
        point.update(overrides)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        config.validate()
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    results = run_experiment(config)
    out = config.out or f"{config.kind}_report.{config.format}"
    emit_report(results, config.format, out)
    errors = sum(1 for r in results if r.error is not None)
    print(f"{len(results)} trials -> {out}" + (f" ({errors} error rows)" if errors else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
