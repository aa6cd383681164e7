"""Command-line interface.

Subcommands: relax, quench, breathing, sweep, analyze, validate.
Exit codes: 0 success, 2 configuration error, 3 solver error, 4 analysis error.
"""

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigurationError, PolaronError, exit_code
from . import runner


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.add_argument(
        "--tier", default=None, choices=("meanfield", "effpot", "ed"),
        help="solver tier override",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polaron1d",
        description="Quench dynamics of a spinor impurity in a 1D trapped Bose gas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("relax", "ground-state preparation and diagnostics"),
        ("quench", "interaction quench and observable suite"),
        ("breathing", "trap-frequency quench and breathing analysis"),
        ("sweep", "run the configured sweep"),
        ("analyze", "re-run observables on an existing contrast.csv"),
        ("validate", "validate a config file and echo the defaults"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="concurrent sweep jobs")
        if name == "analyze":
            p.add_argument("contrast", help="existing contrast.csv")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.tier:
        cfg.tier = args.tier
    if args.output:
        cfg.directory = args.output
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = _load(args)
            json.dump(cfg.echo(), sys.stdout, indent=2, sort_keys=True)
            print()
            return 0
        cfg = _load(args)
        if args.command == "relax":
            summary = runner.run_relax(cfg)
        elif args.command == "quench":
            summary = runner.run_quench(cfg)
        elif args.command == "breathing":
            summary = runner.run_breathing(cfg)
        elif args.command == "sweep":
            summary, _ = runner.run_sweep(cfg, jobs=args.jobs)
        elif args.command == "analyze":
            summary = runner.run_analyze(args.contrast, cfg)
        else:  # pragma: no cover - argparse guards this
            raise ConfigurationError(f"unknown command {args.command}")
        print(f"[polaron1d] {args.command} ok -> {cfg.directory}")
        return 0
    except ConfigurationError as exc:
        print(f"[polaron1d] configuration error:\n{exc}", file=sys.stderr)
        return exit_code(exc)
    except PolaronError as exc:
        print(f"[polaron1d] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code(exc)
    except FileNotFoundError as exc:
        print(f"[polaron1d] {exc}", file=sys.stderr)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
