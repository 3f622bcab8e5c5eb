"""zuglint command line.

Usage::

    python -m repro.lint src/ tests/            # lint trees
    python -m repro.lint --list-rules           # show every rule code
    python -m repro.lint --format json src/     # machine output
    python -m repro.lint --format sarif --output lint.sarif src/
    python -m repro.lint --select DET001 src/   # run a subset
    python -m repro.lint --stage aio src/       # one analysis stage only

Exit codes: **0** clean, **1** findings reported, **2** usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

import repro.lint  # noqa: F401  (registers all rules)
from repro.lint.engine import STAGES, LintError, lint_paths
from repro.lint.reporters import REPORTERS, describe_rules

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "zuglint: AST-based determinism (DET00x) and protocol-safety "
            "(PROTO00x) linter for the ZugChain reproduction."
        ),
        epilog=(
            "Suppress a finding inline with '# zuglint: disable=CODE' (or "
            "'disable-file=CODE' for a whole module). Exit codes: 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the rendered report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. DET001,PROTO001)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--stage",
        metavar="STAGES",
        help=(
            "comma-separated analysis stages to run "
            f"({', '.join(STAGES)}; default: all)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    return parser


def main(argv: list[str] | None = None, stream: IO[str] | None = None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        describe_rules(out)
        return EXIT_CLEAN

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return EXIT_USAGE

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    stages = args.stage.split(",") if args.stage else None

    try:
        findings = lint_paths(args.paths, select=select, ignore=ignore, stages=stages)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reporter = REPORTERS[args.format]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            reporter(findings, sink)
        print(f"zuglint: wrote {args.format} report to {args.output}", file=out)
    else:
        reporter(findings, out)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
