"""Command-line interface.

::

    python -m repro analyze prog.c [more.c ...] [--points-to VAR] [--ptfs PROC]
    python -m repro analyze prog.c --trace-json trace.json   # Perfetto-loadable
    python -m repro explain prog.c --query VAR[@PROC]        # why does p -> x?
    python -m repro callgraph prog.c
    python -m repro compare prog.c --var VAR        # WL vs Andersen vs Steensgaard
    python -m repro table2 [--names a,b,c] [--json]
    python -m repro table3
    python -m repro parallelize prog.c
    python -m repro snapshot prog.c -o run.json      # canonical run snapshot
    python -m repro diff old.json new.json --fail-on precision-loss
    python -m repro analyze --jobs 4 a.c b.c c.c --snapshot-dir snaps/
    python -m repro index prog.c -o prog.store.json  # analyze once...
    python -m repro index --jobs 4 a.c b.c -o stores/  # one store per file
    python -m repro query prog.store.json "points-to p@main" "alias a b"
    python -m repro serve prog.store.json --tcp 127.0.0.1:0   # ...ask many
    python -m repro serve prog.store.json --access-log access.jsonl

This module is only the dispatcher.  :data:`COMMANDS` maps each
subcommand to the module under :mod:`repro.commands` that defines its
flags and handler.  Every subcommand is registered with its one-line
help, so ``repro --help``, usage lines and "invalid choice" errors list
them all; arguments are added, and a handler module imported, only for
the command being run (docs/QUERY.md §7).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ._lazy import _import
from .commands import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL  # noqa: F401 (re-exported)

__all__ = ["main"]

#: subcommand -> (module under :mod:`repro.commands`, one-line help), in
#: ``repro --help`` order
COMMANDS = {
    "analyze": ("analysis", "analyze C files, print stats"),
    "explain": (
        "analysis",
        "explain why a pointer points where it does (provenance)",
    ),
    "callgraph": ("analysis", "print the resolved call graph"),
    "compare": ("analysis", "compare against the baselines"),
    "table2": ("reports", "regenerate the paper's Table 2"),
    "table3": ("reports", "regenerate the paper's Table 3"),
    "report": ("reports", "full paper-vs-measured report"),
    "parallelize": ("analysis", "run the §7 parallelizer client"),
    "snapshot": (
        "analysis",
        "analyze C files and write the canonical run snapshot "
        "(solution, deterministic digest, precision profile)",
    ),
    "diff": (
        "reports",
        "semantically compare two run snapshots and classify drift",
    ),
    "index": (
        "index",
        "analyze C files once and write the persistent query store "
        "(then ask with 'repro query' / 'repro serve')",
    ),
    "query": (
        "query",
        "answer demand queries from a store, without re-analyzing",
    ),
    "serve": (
        "serve",
        "long-lived query daemon over a store (JSON lines on "
        "stdio, or TCP with --tcp HOST:PORT)",
    ),
}


def _command_in(argv: list[str]) -> Optional[str]:
    """The subcommand ``argv`` runs: the top-level parser takes no
    option but ``-h``, so it is the first argument that is not one."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg
    return None


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser for ``argv``.  Every subcommand is
    registered; arguments and a handler are added for the one ``argv``
    runs."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-sensitive pointer analysis for C "
                    "(Wilson & Lam, PLDI 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = _command_in(argv)
    for name, (module, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name != wanted:
            continue
        add_arguments, handler = _import(f"repro.commands.{module}").COMMANDS[name]
        if add_arguments is not None:
            add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        status = _fatal_status(exc)
        if status is None:
            raise
        return status


def _fatal_status(exc: Exception) -> Optional[int]:
    """Report an error that escaped a command handler; ``None`` means
    it is not one of ours and should propagate.  The frontend's
    exception types are imported only here, after something failed, so
    commands that never lower a source never load them."""
    from .analysis.tripped import GuardTripped
    from .frontend.parser import ParseError
    from .frontend.typebuild import FrontendError

    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
    elif isinstance(exc, FrontendError):
        print(f"frontend error: {exc}", file=sys.stderr)
    elif isinstance(exc, GuardTripped):
        # only reachable under --strict: the budget aborts instead of
        # degrading; report which guard fired and where
        print(f"analysis aborted (strict): {exc}", file=sys.stderr)
    elif isinstance(exc, FileNotFoundError):
        print(f"error: {exc}", file=sys.stderr)
    else:
        return None
    return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
