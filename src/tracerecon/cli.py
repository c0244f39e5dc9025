"""Command line front end for the experiment harness.

One subcommand per experiment kind.  A JSON config file supplies the grid;
individual flags override config fields (or, without a config, define a
single grid point).  A completed sweep exits 0 even when some trials ended
in error rows; config problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import KINDS, ExperimentConfig, emit_report, run_experiment

_POINT_FLAGS = {
    "n": "n",
    "delta": "delta",
    "m_traces": "m_traces",
    "k_const": "k_const",
    "tau": "tau",
    "gamma": "gamma",
    "b_len": "b_len",
    "mc_samples": "mc_samples",
    "l_desert": "l_desert",
    "g_desert": "g_desert",
    "reconstructor": "reconstructor",
}


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
        p.add_argument("--n", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--m-traces", type=int, dest="m_traces")
        p.add_argument("--k-const", type=float, dest="k_const")
        p.add_argument("--tau", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--b-len", type=int, dest="b_len")
        p.add_argument("--mc-samples", type=int, dest="mc_samples")
        p.add_argument("--l-desert", type=int, dest="l_desert")
        p.add_argument("--g-desert", type=int, dest="g_desert")
        p.add_argument("--reconstructor", choices=("first_trace", "full"))
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
        config.kind = args.kind
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
        for key in _POINT_FLAGS
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
