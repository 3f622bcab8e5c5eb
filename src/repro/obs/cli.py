"""``python -m repro.obs`` — summarize a JSONL trace into operator tables.

Subcommands::

    python -m repro.obs summary trace.jsonl [--node node-0] [--since 3.0]
    python -m repro.obs events trace.jsonl
    python -m repro.obs dag trace.jsonl [--json] [--no-time]
    python -m repro.obs check trace.jsonl [--faulty node-1 ...] [--vc-bound 2.0]

``summary`` prints the per-phase latency decomposition (span pairing over
the request lifecycle events), drop/dedup tables, and view-change stalls;
``events`` prints per-name event counts for a quick look at what a trace
contains.  ``dag`` reconstructs the causal message-flow DAG (edge/anomaly
counts, per-hop latencies, a canonical fingerprint; ``--json`` dumps the
whole DAG).  ``check`` runs the invariant oracle and exits 1 with one
line per finding — the gate adversarial campaigns and CI run against.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter as TallyCounter

from repro.analysis import format_table
from repro.obs.causal import build_dag, lifecycle_shape
from repro.obs.check import DEFAULT_TAIL_SLACK_S, check_trace
from repro.obs.fold import fold_trace
from repro.obs.sinks import read_trace
from repro.obs.spans import PHASES, span_report
from repro.util.errors import CodecError


def _ms(value: float) -> str:
    return f"{value * 1000:.3f} ms"


def _phase_table(report) -> str:
    rows = []
    for name in (*PHASES, "end_to_end"):
        stats = report.end_to_end if name == "end_to_end" else report.phase_stats[name]
        rows.append([
            name,
            str(stats.count),
            _ms(stats.mean),
            _ms(stats.minimum),
            _ms(stats.maximum),
            _ms(stats.total),
        ])
    return format_table(
        ["phase", "count", "mean", "min", "max", "total"],
        rows,
        title="Per-request phase latency (bus reception -> LOG)",
    )


def _drop_table(events) -> str | None:
    drops: TallyCounter = TallyCounter()
    for event in events:
        if event.name == "layer.dedup_drop":
            where = event.get("where", "?")
            drops[(event.node, str(where))] += 1
    if not drops:
        return None
    rows = [
        [node, where, str(count)]
        for (node, where), count in sorted(drops.items())
    ]
    return format_table(["node", "where", "drops"], rows,
                        title="Dedup/filter drops")


def _viewchange_table(stalls) -> str | None:
    if not stalls:
        return None
    rows = []
    for stall in stalls:
        rows.append([
            stall.node,
            f"{stall.started_at:.3f} s",
            "open" if stall.ended_at is None else f"{stall.ended_at:.3f} s",
            "-" if stall.duration is None else _ms(stall.duration),
        ])
    return format_table(["node", "start", "end", "stall"], rows,
                        title="View-change stalls")


def _cmd_summary(args, out) -> int:
    events = read_trace(args.trace)
    fold = fold_trace(events)
    report = span_report(fold.closed_spans, fold.open_spans.values(),
                         node=args.node, since=args.since)
    print(_phase_table(report), file=out)
    if report.incomplete_count:
        print(f"incomplete spans: {report.incomplete_count} "
              "(request observed but never logged on that node)", file=out)
    for table in (_drop_table(events), _viewchange_table(fold.stalls)):
        if table is not None:
            print(file=out)
            print(table, file=out)
    return 0


def _cmd_events(args, out) -> int:
    tally: TallyCounter = TallyCounter()
    nodes: set[str] = set()
    last_t = 0.0
    events = read_trace(args.trace)
    for event in events:
        tally[event.name] += 1
        nodes.add(event.node)
        last_t = max(last_t, event.t)
    rows = [[name, str(count)] for name, count in sorted(tally.items())]
    print(format_table(["event", "count"], rows, title="Event counts"), file=out)
    print(f"{len(events)} events, {len(nodes)} nodes, "
          f"last event at t={last_t:.3f} s", file=out)
    return 0


def _cmd_dag(args, out) -> int:
    events = read_trace(args.trace)
    dag = build_dag(events)
    if args.json:
        print(json.dumps(dag.to_dict(include_time=not args.no_time),
                         separators=(",", ":"), sort_keys=True), file=out)
        return 0
    edges = dag.edges
    message_edges = dag.message_edges
    print(f"{len(dag.events)} events, {len(edges)} edges "
          f"({len(message_edges)} message, "
          f"{len(edges) - len(message_edges)} program), "
          f"{len(dag.roots())} roots", file=out)
    shape = lifecycle_shape(events)
    print(f"lifecycle: {shape['complete']} complete chains across "
          f"{shape['nodes']} nodes ({shape['partial']} in flight)", file=out)
    hops = dag.hop_latencies()
    if hops:
        rows = [
            [src, dst, str(stats.count), f"{stats.mean * 1000:.3f} ms",
             f"{stats.minimum * 1000:.3f} ms", f"{stats.maximum * 1000:.3f} ms"]
            for (src, dst), stats in sorted(hops.items())
        ]
        print(format_table(["src", "dst", "msgs", "mean", "min", "max"], rows,
                           title="Per-hop latency (message edges)"), file=out)
    if dag.anomaly_count:
        print(f"anomalies: {len(dag.orphans)} orphan causes, "
              f"{len(dag.duplicate_ids)} duplicate ids, "
              f"{len(dag.duplicate_edges)} duplicate deliveries, "
              f"{len(dag.clock_regressions)} clock regressions", file=out)
    print(f"fingerprint: {dag.fingerprint(include_time=not args.no_time)}",
          file=out)
    return 0


def _cmd_check(args, out) -> int:
    events = read_trace(args.trace)
    report = check_trace(
        events,
        faulty=args.faulty,
        vc_bound_s=args.vc_bound,
        tail_slack_s=args.tail_slack,
    )
    print(f"checked {report.checked_events} events across "
          f"{report.checked_nodes} nodes"
          + (f" (faulty: {', '.join(report.faulty_nodes)})"
             if report.faulty_nodes else ""), file=out)
    if report.ok:
        print("ok: all invariants hold", file=out)
        return 0
    for finding in report.findings:
        print(f"{finding.code}: {finding.message}", file=out)
    breakdown = ", ".join(
        f"{code}={count}" for code, count in sorted(report.by_code().items())
    )
    print(f"FAIL: {len(report.findings)} finding(s) [{breakdown}]", file=out)
    return 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="summarize deterministic JSONL traces (phase latencies, drops)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser("summary", help="phase-latency and drop tables")
    summary.add_argument("trace", help="JSONL trace file")
    summary.add_argument("--node", default=None,
                         help="restrict span pairing to one node's view")
    summary.add_argument("--since", type=float, default=None,
                         help="drop spans logged before this virtual time (warmup)")

    events = subparsers.add_parser("events", help="per-name event counts")
    events.add_argument("trace", help="JSONL trace file")

    dag = subparsers.add_parser("dag", help="reconstruct the causal message-flow DAG")
    dag.add_argument("trace", help="JSONL trace file")
    dag.add_argument("--json", action="store_true",
                     help="dump the full DAG as canonical JSON")
    dag.add_argument("--no-time", action="store_true",
                     help="exclude timestamps (cross-runtime-comparable output)")

    check = subparsers.add_parser("check", help="run the invariant oracle (exit 1 on findings)")
    check.add_argument("trace", help="JSONL trace file")
    check.add_argument("--faulty", action="append", default=[],
                       help="node id known to be Byzantine/crashed (repeatable); "
                            "agreement invariants quantify over the rest")
    check.add_argument("--vc-bound", type=float, default=None,
                       help="max allowed view-change stall in seconds")
    check.add_argument("--tail-slack", type=float, default=DEFAULT_TAIL_SLACK_S,
                       help="liveness slack for the omission check (seconds)")

    args = parser.parse_args(argv)
    handlers = {
        "summary": _cmd_summary,
        "events": _cmd_events,
        "dag": _cmd_dag,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
