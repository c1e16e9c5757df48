"""Command-line scenario runner.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
configuration was rejected, 3 internal fault.  Inconclusive verdicts count
as failures only under --strict-inconclusive.  The environment variable
IFNCHECK_SEED overrides a config-file seed; an explicit --seed flag
overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, IFNError
from .vocabulary import DESCRIPTIONS

SEED_ENV_VAR = "IFNCHECK_SEED"

_CONFIG_KINDS = (
    ("axioms", "check a space's axiom system over a sampling plan"),
    ("converge", "convergence / Cauchy certificates for a point sequence"),
    ("continuity", "pointwise continuity witness searches"),
    ("uniform", "uniform continuity and Cauchy preservation"),
    ("topology", "open balls, sampled open sets, preimages"),
    ("funcseq", "function-sequence convergence and index sweeps"),
)

_KIND_OF_COMMAND = {name: name for name, _ in _CONFIG_KINDS}
_KIND_OF_COMMAND["uniform"] = "uniform-continuity"


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="report file format (default: json lines)",
    )
    parser.add_argument("--out", default=".", help="output directory for report files")
    parser.add_argument(
        "--strict-inconclusive", action="store_true",
        help="treat inconclusive verdicts as failures",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifncheck",
        description="numerical verification scenarios for intuitionistic fuzzy normed spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _CONFIG_KINDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the scenario JSON document")
        _add_common(p)
    p = sub.add_parser("catalog", help="run a named catalog scenario")
    p.add_argument("name", help="catalog scenario name (see list-catalog)")
    _add_common(p)
    sub.add_parser("list-catalog", help="list catalog scenario names")
    return parser


def _resolve_seed(args) -> int | None:
    """The seed of the flag or the environment; None leaves the config's."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-catalog":
        for name, description in DESCRIPTIONS.items():
            print(f"{name}: {description}")
        return 0
    try:
        # imported here: list-catalog needs none of them, nor numpy
        from .config_schema import load_config
        from .report import emit_report, to_text
        from .scenarios import run_scenario
        if args.command == "catalog":
            config = {"scenario": "catalog", "name": args.name}
            kind = "catalog"
        else:
            config = load_config(args.config)
            kind = _KIND_OF_COMMAND[args.command]
        seed = _resolve_seed(args)
        report = run_scenario(config, kind=kind, seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IFNError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit codes are part of the contract
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        path = emit_report(report, args.format, args.out)
        text = to_text(report)
    except Exception as exc:  # a report that cannot be written is never exit 1
        print(f"internal fault: cannot write report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    print(f"report written to {path}")
    return 1 if report.failed(args.strict_inconclusive) else 0


if __name__ == "__main__":
    sys.exit(main())
