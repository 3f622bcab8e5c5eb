"""Command line: ``python -m perfbench run ...`` and ``python -m perfbench compare A B``.

``BENCHMARK.json`` names ``python3 -m perfbench run``; the driver appends
``--workload W --seed N --seconds S --trace 0|1``, and the last line of
standard output is then the one JSON object the contract asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _print_rows(result: dict) -> None:
    for name, entry in result["metrics"].items():
        print(f"{result['workload']:13s} {name:28s} {entry['value']:16.6f} {entry['unit']}")
    print(f"{result['workload']:13s} head {result['head']}  "
          f"events_fired {result['events_fired']}  correct {result['correct']}")
    for problem in result["problems"]:
        print(f"{result['workload']:13s} PROBLEM {problem}", file=sys.stderr)


def _document(results: list[dict], seed: int, seconds: float) -> dict:
    return {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": seed,
        "seconds": seconds,
        "workloads": {result["workload"]: result for result in results},
    }


def _run(args: argparse.Namespace) -> int:
    from perfbench.harness import OUT, run_workload
    from perfbench.workloads import WORKLOADS

    if args.all:
        # Each workload gets a fresh interpreter, so one's heap and caches
        # cannot colour the next one's peak RSS or timings.
        results = []
        for name in WORKLOADS:
            part = OUT / f"{name}.result.json"
            part.parent.mkdir(parents=True, exist_ok=True)
            done = subprocess.run(
                [sys.executable, "-m", "perfbench", "run", "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", args.trace, "--out", str(part)],
                cwd=ROOT,
            )
            if not part.exists():
                return done.returncode or 1
            results.append(json.loads(part.read_text())["workloads"][name])
    else:
        results = [run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)]
        _print_rows(results[0])

    if args.out:
        Path(args.out).write_text(
            json.dumps(_document(results, args.seed, args.seconds), indent=1) + "\n")
    if not args.all:
        result = results[0]
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(result["correct"] for result in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload, or all four")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="zug-steady | zug-bulk | crash-storm | export-round")
    which.add_argument("--all", action="store_true", help="every workload, each in a fresh interpreter")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=20.0,
                     help="how long the timed repeats of one workload go on")
    run.add_argument("--trace", choices=("0", "1", "both"), default="both",
                     help="0: end-to-end metrics; 1: per-layer metrics; both (default)")
    run.add_argument("--out", help="write the machine-readable result here")
    compare = commands.add_parser("compare", help="apply the bounds to two result files")
    compare.add_argument("base")
    compare.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(args.base, args.new)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
