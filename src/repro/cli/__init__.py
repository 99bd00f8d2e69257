"""Command-line interface: run apps, regenerate figures, inspect tables.

Usage (after ``pip install -e .``)::

    python -m repro.cli classify                    # Table 1
    python -m repro.cli effort                      # Table 2
    python -m repro.cli run wc --mode barrierless --records 5000
    python -m repro.cli trace wc -o wc.trace.json   # Chrome trace_event JSON
    python -m repro.cli counters wc --diff          # barrier vs barrier-less
    python -m repro.cli compare wc --size-gb 8      # simulated A/B
    python -m repro.cli figure fig6 fig7            # regenerate figures

Every command prints to stdout and exits non-zero on failure, so the CLI
can drive scripts and CI checks.  Each command group is one module whose
``add_commands(sub)`` registers its subcommands and their handlers.
"""

from __future__ import annotations

import argparse
import os
from typing import Sequence

from repro.apps.demo import APP_CHOICES
from repro.core.types import ExecutionMode


def _mode(value: str) -> ExecutionMode:
    try:
        return ExecutionMode(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mode must be 'barrier' or 'barrierless', got {value!r}"
        )


def existing_file(value: str) -> str:
    """argparse ``type=`` for an input file: a usage error if it is missing."""
    if not os.path.isfile(value):
        raise argparse.ArgumentTypeError(f"no such file: {value!r}")
    return value


def add_mode(command) -> None:
    command.add_argument("--mode", type=_mode, default=ExecutionMode.BARRIERLESS)


def add_workload_args(command, records: int, reducers: int, maps: int, *,
                      mode: bool = True, all_apps: bool = False,
                      records_help=None, seed_help=None, **app) -> None:
    """Add the demo workload: ``app`` plus its mode, size and seed flags,
    with per-command defaults; ``app`` keywords go to the positional."""
    choices = APP_CHOICES + ("all",) if all_apps else APP_CHOICES
    command.add_argument("app", choices=choices, **app)
    if mode:
        add_mode(command)
    command.add_argument("--records", type=int, default=records,
                         help=records_help)
    command.add_argument("--reducers", type=int, default=reducers)
    command.add_argument("--maps", type=int, default=maps)
    command.add_argument("--seed", type=int, default=0, help=seed_help)


def build_workload(args, app: str | None = None,
                   mode: ExecutionMode | None = None):
    """``(job, pairs)`` for the workload :func:`add_workload_args` declared;
    ``app`` and ``mode`` override the parsed ones."""
    from repro.apps.demo import demo_job_and_input

    return demo_job_and_input(
        app or args.app,
        mode or args.mode,
        records=args.records,
        num_reducers=args.reducers,
        num_maps=args.maps,
        # Only the single-run commands declare --store.
        store=getattr(args, "store", "inmemory"),
        seed=args.seed,
    )


def add_checkpoint_args(command, checkpoint_help: str) -> None:
    command.add_argument("--checkpoint", action="store_true",
                         help=checkpoint_help)
    command.add_argument("--checkpoint-every", type=int, default=25,
                         help="snapshot the reducer store every N folded "
                              "records (with --checkpoint)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    from repro.cli import chaos, paper, run, server

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Barrier-less MapReduce (CLUSTER 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in (paper, run, chaos, server):
        group.add_commands(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
