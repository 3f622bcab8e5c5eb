"""zuglint command line.

Usage::

    python -m repro.lint src/ tests/            # lint trees
    python -m repro.lint --list-rules           # show every rule code
    python -m repro.lint --format json src/     # machine output
    python -m repro.lint --format sarif --output lint.sarif src/
    python -m repro.lint --select DET001 src/   # run a subset
    python -m repro.lint --stage aio src/       # one analysis stage only
    python -m repro.lint --write-baseline src/  # absorb current findings
    python -m repro.lint --prune-baseline src/  # drop stale baseline entries

Exit codes: **0** clean, **1** findings reported, **2** usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

import repro.lint  # noqa: F401  (registers all rules)
from repro.lint import baseline as baseline_mod
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
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file of known findings to ignore "
            f"(default: ./{baseline_mod.DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries no longer matched by any finding, then lint",
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

        baseline_path = args.baseline or baseline_mod.find_default_baseline()
        if args.write_baseline:
            target = args.baseline or baseline_mod.DEFAULT_BASELINE_NAME
            baseline_mod.write_baseline(target, findings)
            print(f"zuglint: wrote {len(findings)} fingerprint(s) to {target}", file=out)
            return EXIT_CLEAN
        if args.prune_baseline:
            target = baseline_path or baseline_mod.DEFAULT_BASELINE_NAME
            dropped = baseline_mod.prune_baseline(target, findings)
            print(
                f"zuglint: pruned {len(dropped)} stale entr"
                f"{'y' if len(dropped) == 1 else 'ies'} from {target}",
                file=out,
            )
            baseline_path = target
        if baseline_path:
            suppressed = baseline_mod.load_baseline(baseline_path)
            stale = baseline_mod.stale_entries(findings, suppressed)
            if stale and not args.prune_baseline:
                print(
                    f"zuglint: warning: {len(stale)} stale baseline "
                    f"entr{'y' if len(stale) == 1 else 'ies'} in "
                    f"{baseline_path} (run --prune-baseline): "
                    + ", ".join(stale[:5])
                    + (", ..." if len(stale) > 5 else ""),
                    file=sys.stderr,
                )
            findings = baseline_mod.apply_baseline(findings, suppressed)
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
