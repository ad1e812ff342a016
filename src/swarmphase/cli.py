"""Command-line interface: simulate, analyze, run, isomap."""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
import warnings

from .io import load_config_file
from .pipeline import (
    SETTINGS,
    ConfigError,
    PipelineError,
    config_from_sources,
    run_isomap,
    run_pipeline,
    run_simulate,
)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file with key = value lines")
    for key, (field, value_type) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        help_text = field.metadata.get("help")
        if value_type is bool:
            parser.add_argument(flag, dest=field.name, action=argparse.BooleanOptionalAction, help=help_text)
        else:
            choices = field.metadata.get("choices")
            parser.add_argument(flag, dest=field.name, type=value_type, choices=choices, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmphase",
        description="Simulate collective motion and characterize its phases and manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "generate a scenario trajectory and write it as CSV"),
        ("analyze", "run the analysis pipeline on an input trajectory CSV"),
        ("run", "full pipeline from a scenario or an input trajectory"),
        ("isomap", "isomap dimensionality report for a whole trajectory"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_options(p)
    return parser


def _config_from_args(args: argparse.Namespace):
    try:
        file_values = load_config_file(args.config) if args.config else None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from None
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config")
    }
    return config_from_sources(file_values, overrides)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning by its class name, without the path and source line that raised it."""
    sys.stderr.write(f"swarmphase: warning: {category.__name__}: {message}\n")


def main(argv=None) -> int:
    # At exit, move every object to the collector's permanent generation, so
    # that the interpreter's shutdown collections skip numpy's and scipy's
    # ~46k objects (~25 ms); the OS frees that memory anyway. Registering here,
    # not at import, leaves a process that only imports this module alone, and
    # in-process callers keep a normal collector until they exit.
    atexit.unregister(gc.freeze)  # at most one registration per process
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        # every warning is printed, not only the first of each text and line;
        # appended, so a filter set by -W or the caller still comes first
        warnings.simplefilter("always", append=True)
        try:
            config = _config_from_args(args)
            if args.command == "simulate":
                artifacts = run_simulate(config)
            elif args.command == "isomap":
                artifacts = run_isomap(config)
            else:
                if args.command == "analyze" and config.input_path is None:
                    raise ConfigError("input: the analyze command needs a trajectory file")
                result = run_pipeline(config)
                sys.stdout.write(result.summary)
                artifacts = result.artifacts
            for name in sorted(artifacts):
                sys.stdout.write(f"wrote {name}: {artifacts[name]}\n")
            return 0
        except (ConfigError, PipelineError, OSError, ValueError) as exc:
            sys.stderr.write(f"swarmphase: error: {exc}\n")
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
