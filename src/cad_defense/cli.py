"""Command-line entry point.

Subcommands mirror the harness: gen (materialize an ensemble), stats
(clean-residual statistics), run (defence over an ensemble), bench
(parameter sweep).  Exit codes: 0 success, 1 configuration error, 2 IO
error, 3 numerical failure (clean statistics singular at ridge 0, or a
floating point overflow or invalid value anywhere in the command).  Set
CAD_LOG=debug|info|warning|error, in any case, to control logging
verbosity (default warning); any other value is a configuration error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .harness import ConfigError, ExperimentConfig, cmd_bench, cmd_gen, cmd_run, cmd_stats

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cad-defense",
        description="Bandit-driven sparse-recovery defence harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate adversarial instances and a manifest"),
        ("stats", "estimate clean-residual statistics"),
        ("run", "run the defence over an ensemble and write reports"),
        ("bench", "sweep a parameter grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        if name in ("run", "bench"):
            p.add_argument("--workers", type=int, default=1,
                           help="process pool size (default 1, serial)")
        if name == "run":
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="primary report format")
    return parser


def _configure_logging() -> None:
    value = os.environ.get("CAD_LOG", "warning")
    if value.lower() not in ("debug", "info", "warning", "error"):
        raise ConfigError(f"CAD_LOG={value!r} must be debug, info, warning or error")
    logging.basicConfig(level=value.upper(),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message; fold into config errors
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        _configure_logging()
        cfg = ExperimentConfig.from_json(args.config)
        if args.seed is not None:
            raw = dict(cfg.raw, seed=args.seed)
            cfg = ExperimentConfig.from_dict(raw)
        # an overflow or an invalid value fails the command instead of
        # carrying inf or nan into its outputs
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "gen":
                cmd_gen(cfg, args.out)
            elif args.command == "stats":
                cmd_stats(cfg, args.out)
            elif args.command == "run":
                cmd_run(cfg, args.out, workers=args.workers, fmt=args.format)
            elif args.command == "bench":
                cmd_bench(cfg, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
