"""Command-line interface: run scenarios, sweeps, exports, and analyses.

Examples::

    python -m repro run --system zugchain --cycle-ms 64 --duration 60
    python -m repro run --system baseline --cycle-ms 32 --payload 1024
    python -m repro run --cycle-ms 32 64 128 256 --jobs 4 --duration 24
    python -m repro bench --jobs 4 --compare-serial
    python -m repro export --blocks 2000 --datacenters 2
    python -m repro reliability --destroy-prob 0.1 --target 1e-4
    python -m repro requirements --cycle-ms 64 --payload 8192

Passing more than one value to ``--cycle-ms`` / ``--payload`` (or more
than one ``--system``) turns ``run`` into a sweep over the cartesian
product of the axes, executed through :mod:`repro.sweep` — ``--jobs N``
shards the points across N worker processes and the merged output is
byte-identical to the serial run.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table
from repro.export.scenario import ExportScenario, ExportScenarioConfig
from repro.jru import check_requirements, required_nodes_for_target, survival_probability
from repro.obs.sinks import write_trace
from repro.obs.trace import RecordingTracer
from repro.runtime.wallclock import today_str, wall_timer
from repro.scenarios import RUNTIMES, ScenarioConfig, run_scenario
from repro.sweep import (
    BenchRecorder,
    cycle_sweep_spec,
    default_bench_path,
    grid_sweep_spec,
    payload_sweep_spec,
    run_sweep,
)


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser("run", help="run a recorder scenario and report metrics")
    parser.add_argument("--system", choices=("zugchain", "baseline"), default="zugchain")
    parser.add_argument("--runtime", choices=tuple(RUNTIMES), default="sim",
                        help="sim: deterministic simulator; tcp: real asyncio "
                             "sockets on localhost; mp: one OS process per "
                             "node over multiprocessing queues (both wall-"
                             "clock paced, trace timestamps are debug-grade)")
    parser.add_argument("--cycle-ms", type=float, nargs="+", default=[64.0],
                        metavar="MS", help="bus cycle time(s); more than one "
                                           "value turns the run into a sweep")
    parser.add_argument("--payload", type=int, nargs="+", default=[1024],
                        metavar="BYTES", help="payload bytes per cycle; more "
                                              "than one value sweeps the axis")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="measured seconds (simulated, or wall-clock on "
                             "tcp/mp), after --warmup seconds of the same")
    parser.add_argument("--warmup", type=float, default=3.0)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep mode (points are "
                             "seed-isolated; the merged output is byte-"
                             "identical to --jobs 1)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a JSONL trace (summarize with "
                             "'python -m repro.obs summary PATH'; "
                             "single-point runs only)")
    parser.add_argument("--record-bench", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="time the run and write a BENCH_<date>.json "
                             "artifact (default name when PATH is omitted)")


def _add_bench_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "bench", help="time the figure sweeps and write a BENCH_<date>.json artifact"
    )
    parser.add_argument("--suite",
                        choices=("cycles", "payloads", "obs", "lint", "chaos", "all"),
                        default="all", help="which figure sweeps to time "
                                            "(obs: observability hot-path "
                                            "micro-costs; lint: zuglint "
                                            "per-stage wall times, shared vs "
                                            "standalone call graph; chaos: "
                                            "campaign wall times and schedule-"
                                            "application overhead — neither "
                                            "lint nor chaos is part of 'all')")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per sweep")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds per point (default: the "
                             "benchmark suite's smoke/full setting)")
    parser.add_argument("--warmup", type=float, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--compare-serial", action="store_true",
                        help="also run each sweep serially and record the "
                             "serial-vs-parallel speedup (checks the merged "
                             "outputs are byte-identical)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="artifact path (default: ./BENCH_<date>.json)")


def _add_chaos_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos", help="run a seeded fault-injection campaign gated on the "
                      "invariant oracle"
    )
    parser.add_argument("--campaign", default=None, metavar="NAME",
                        help="campaign name (see --list)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=1, metavar="K",
                        help="independent schedule draws (indices 0..K-1)")
    parser.add_argument("--replay", type=int, default=None, metavar="INDEX",
                        help="re-execute exactly one (campaign, seed, INDEX) "
                             "triple; the trace bytes, findings, and head "
                             "hashes must match the original run")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one JSONL trace per run into DIR")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full run records as JSON")
    parser.add_argument("--list", action="store_true",
                        help="list known campaigns and exit")


def _add_export_parser(subparsers) -> None:
    parser = subparsers.add_parser("export", help="run one export round over simulated LTE")
    parser.add_argument("--blocks", type=int, default=1000)
    parser.add_argument("--datacenters", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)


def _add_reliability_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "reliability", help="Braband-style survival analysis for a node count"
    )
    parser.add_argument("--destroy-prob", type=float, default=0.1,
                        help="per-node destruction probability in an incident")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--target", type=float, default=None,
                        help="target data-loss probability; prints required node count")
    parser.add_argument("--correlation", type=float, default=0.0)


def _add_requirements_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "requirements", help="run a scenario and check the JRU requirements"
    )
    parser.add_argument("--cycle-ms", type=float, default=64.0)
    parser.add_argument("--payload", type=int, default=8192)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=42)


def _write_bench(recorder: BenchRecorder, path_arg: str, out) -> str:
    date = today_str()
    path = path_arg or default_bench_path(date)
    recorder.preload(path)
    recorder.write(path, date)
    print(f"bench         : wrote {path}", file=out)
    return path


def _cmd_run(args, out) -> int:
    if len(args.cycle_ms) > 1 or len(args.payload) > 1:
        return _cmd_run_sweep(args, out)
    tracer = RecordingTracer() if args.trace else None
    config = ScenarioConfig(
        system=args.system,
        n=args.nodes,
        seed=args.seed,
        cycle_time_s=args.cycle_ms[0] / 1000.0,
        payload_bytes=args.payload[0],
    )

    def run():
        return run_scenario(config, args.runtime, args.duration, args.warmup, tracer)

    recorder = (BenchRecorder(wall_timer())
                if args.record_bench is not None else None)
    if recorder is not None:
        elapsed, result = recorder.time_call(run)
        recorder.record_suite(f"cli:run:{args.system}", [elapsed], units=1,
                              sim_seconds=args.duration, jobs=1)
    else:
        result = run()
    print(result.summary_row(), file=out)
    print(f"p99 latency   : {result.p99_latency_s * 1000:.2f} ms", file=out)
    print(f"logged        : {result.requests_logged}/{result.requests_expected}"
          f"{'' if result.completed else '  (INCOMPLETE)'}", file=out)
    print(f"view changes  : {result.view_changes}", file=out)
    heights = sorted(set(result.chain_heights.values()))
    tallest = max(result.chain_heights, key=result.chain_heights.get, default="")
    print(f"chain         : heights {heights}, head "
          f"{result.head_hashes.get(tallest, '')[:16] or '-'}…, heads "
          f"{'consistent' if result.heads_consistent else 'DIVERGED'}", file=out)
    for node_id, error in sorted(result.errors.items()):
        print(f"node error    : {node_id}: {error}", file=out)
    if tracer is not None:
        count = write_trace(tracer.iter_events(), args.trace)
        print(f"trace         : {count} events -> {args.trace}", file=out)
    if recorder is not None:
        _write_bench(recorder, args.record_bench, out)
    return 0 if result.completed and result.heads_consistent else 1


def _cmd_run_sweep(args, out) -> int:
    """Multi-value axes: run the cartesian product through repro.sweep."""
    if args.runtime != "sim":
        print("repro run: sweep mode supports --runtime sim only", file=sys.stderr)
        return 2
    if args.trace:
        print("repro run: --trace applies to single-point runs only", file=sys.stderr)
        return 2
    if args.nodes != 4:
        print("repro run: sweep mode runs the paper's 4-node cluster", file=sys.stderr)
        return 2
    spec = grid_sweep_spec(
        f"cli:{args.system}",
        (args.system,),
        [ms / 1000.0 for ms in args.cycle_ms],
        args.payload,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
    )
    recorder = (BenchRecorder(wall_timer())
                if args.record_bench is not None else None)
    if recorder is not None:
        elapsed, sweep = recorder.time_call(
            lambda: run_sweep(spec, jobs=args.jobs))
        recorder.record_suite(f"cli:sweep:{args.system}", [elapsed],
                              units=len(spec),
                              sim_seconds=sum(p.duration_s for p in spec),
                              jobs=args.jobs)
    else:
        sweep = run_sweep(spec, jobs=args.jobs)
    rows = []
    for point, result in zip(spec, sweep.results):
        rows.append([
            f"{point.cycle_time_s * 1000:.0f} ms",
            f"{point.payload_bytes} B",
            f"{result.mean_latency_s * 1000:.2f} ms",
            f"{result.p99_latency_s * 1000:.2f} ms",
            f"{result.network_utilization * 100:.3f} %",
            f"{result.requests_logged}/{result.requests_expected}",
            f"{result.view_changes}",
        ])
    print(format_table(
        ["cycle", "payload", "mean lat", "p99 lat", "net util", "logged", "vc"],
        rows,
        title=f"sweep {spec.name}: {len(spec)} points, jobs={args.jobs} "
              f"({sweep.stats.executed} executed, {sweep.stats.cached} cached)",
    ), file=out)
    print(f"spec hash     : {spec.spec_hash()[:16]}…", file=out)
    if recorder is not None:
        _write_bench(recorder, args.record_bench, out)
    return 0


def _cmd_bench(args, out) -> int:
    from repro.sweep import figures

    duration = args.duration if args.duration is not None else figures.DURATION_S
    warmup = args.warmup if args.warmup is not None else figures.WARMUP_S
    overload = figures.OVERLOAD_DURATION_S if args.duration is None else None
    specs = []
    if args.suite in ("cycles", "all"):
        specs += [
            cycle_sweep_spec(system, duration_s=duration, warmup_s=warmup,
                             seed=args.seed, overload_duration_s=overload)
            for system in ("zugchain", "baseline")
        ]
    if args.suite in ("payloads", "all"):
        specs += [
            payload_sweep_spec(system, duration_s=duration, warmup_s=warmup,
                               seed=args.seed)
            for system in ("zugchain", "baseline")
        ]
    recorder = BenchRecorder(wall_timer())
    rows = []
    if args.suite == "lint":
        from repro.lint.bench import measure_lint_stages

        report = measure_lint_stages(("src", "tests"), wall_timer())
        for stage, times in report["stages"].items():
            recorder.record_suite(
                f"lint:{stage}:standalone", [times["standalone_s"]],
                units=report["files"], jobs=1,
                extra={"findings": times["findings"]})
            recorder.record_suite(
                f"lint:{stage}:shared", [times["shared_s"]],
                units=report["files"], jobs=1)
            print(f"lint {stage:5s}    : standalone {times['standalone_s']:.3f} s, "
                  f"shared {times['shared_s']:.3f} s "
                  f"({report['files']} files)", file=out)
        sm = report["stages"]["sm"]
        recorder.record_speedup(
            "lint:sm:shared_vs_standalone",
            before_s=sm["standalone_s"], after_s=sm["shared_s"], jobs=1,
            extra={"files": report["files"], "parse_s": report["parse_s"]})
    if args.suite in ("obs", "all"):
        from repro.obs.overhead import measure_obs_overhead

        timer = wall_timer()
        elapsed, costs = recorder.time_call(lambda: measure_obs_overhead(timer))
        recorder.record_suite("obs:overhead", [elapsed],
                              units=int(costs["calls"]), jobs=1, extra=costs)
        print("obs overhead  : "
              f"guard {costs['null_guard_ns']:.0f} ns/site, "
              f"causal stamp {costs['causal_stamp_ns']:.0f} ns/emission, "
              f"recording emit {costs['recording_emit_ns']:.0f} ns/event",
              file=out)
    if args.suite == "chaos":
        from dataclasses import replace as _replace
        from random import Random

        from repro.chaos import CAMPAIGNS, ChaosInjector, derive_run_seed, run_one
        from repro.scenarios.cluster import SimulatedCluster

        install_times = []
        for name, campaign in sorted(CAMPAIGNS.items()):
            elapsed, record = recorder.time_call(
                lambda campaign=campaign: run_one(campaign, args.seed, 0))
            entry = recorder.record_suite(
                f"chaos:{name}", [elapsed], units=record.n_faults, jobs=1,
                sim_seconds=campaign.duration_s + campaign.settle_s,
                extra={"passed": record.passed,
                       "findings": len(record.findings),
                       "faults_applied": record.faults_applied,
                       "trace_events": record.trace_events})
            rows.append([f"chaos:{name}", f"{record.n_faults}",
                         f"{elapsed:.2f} s", f"{entry['sim_speedup']:.1f}x"])
            # Schedule-application overhead in isolation: DSL expansion plus
            # timer arming against a fresh cluster, without the run itself.
            run_seed = derive_run_seed(name, args.seed, 0)
            schedule = campaign.generate(Random(run_seed)).canonical()
            cluster = SimulatedCluster(_replace(campaign.config, seed=run_seed))
            install_s, _ = recorder.time_call(
                lambda cluster=cluster, schedule=schedule:
                    ChaosInjector(cluster, schedule).install())
            install_times.append(install_s)
        recorder.record_suite(
            "chaos:schedule_install", install_times,
            units=len(install_times), jobs=1)
        print("chaos install : "
              f"{sum(install_times) / len(install_times) * 1e3:.2f} ms mean "
              f"schedule application ({len(install_times)} campaigns)",
              file=out)
    for spec in specs:
        elapsed, sweep = recorder.time_call(
            lambda spec=spec: run_sweep(spec, jobs=args.jobs))
        entry = recorder.record_suite(
            spec.name, [elapsed], units=len(spec),
            sim_seconds=sum(p.duration_s for p in spec), jobs=args.jobs)
        if args.compare_serial:
            serial_s, serial = recorder.time_call(
                lambda spec=spec: run_sweep(spec, jobs=1))
            identical = serial.to_json() == sweep.to_json()
            recorder.record_speedup(
                f"{spec.name}:serial_vs_jobs{args.jobs}",
                before_s=serial_s, after_s=elapsed, jobs=args.jobs,
                extra={"byte_identical": identical})
            if not identical:
                print(f"repro bench: {spec.name}: parallel output diverged "
                      f"from serial", file=sys.stderr)
                return 1
        rows.append([spec.name, f"{len(spec)}", f"{elapsed:.2f} s",
                     f"{entry['sim_speedup']:.1f}x"])
    print(format_table(
        ["suite", "points", "wall", "sim-x"], rows,
        title=f"bench suites (jobs={args.jobs})",
    ), file=out)
    date = today_str()
    path = args.out or default_bench_path(date)
    recorder.preload(path)
    recorder.write(path, date)
    print(f"artifact      : {path}", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    import json

    from repro.chaos import CAMPAIGNS, replay_run, run_campaign

    if args.list:
        for name, campaign in sorted(CAMPAIGNS.items()):
            gate = "must-fail" if campaign.must_fail else "must-pass"
            print(f"{name:22s} {campaign.duration_s:g} s  {gate:9s} "
                  f"{campaign.description}", file=out)
        return 0
    if not args.campaign:
        print("repro chaos: --campaign is required (or --list)", file=sys.stderr)
        return 2
    if args.replay is not None:
        trace_path = None
        if args.trace_dir is not None:
            trace_path = (f"{args.trace_dir}/{args.campaign}-s{args.seed}"
                          f"-i{args.replay}.trace.jsonl")
        records = [replay_run(args.campaign, args.seed, args.replay,
                              trace_path=trace_path)]
    else:
        records = run_campaign(args.campaign, seed=args.seed, runs=args.runs,
                               trace_dir=args.trace_dir)
    for record in records:
        verdict = "PASS" if record.passed else "FAIL"
        print(f"{record.campaign} seed={record.seed} index={record.index}: "
              f"{verdict}  faults={record.n_faults} "
              f"findings={len(record.findings)} "
              f"converged={record.converged}", file=out)
        print(f"  schedule {record.schedule_hash[:16]}…  "
              f"trace {record.trace_sha256[:16]}… "
              f"({record.trace_events} events)", file=out)
        if not record.passed:
            for finding in record.findings[:5]:
                print(f"  {finding['code']}: {finding['message']}", file=out)
            print(f"  replay: python -m repro chaos --campaign {record.campaign} "
                  f"--seed {record.seed} --replay {record.index}", file=out)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"records": [r.to_dict() for r in records]}, handle,
                      indent=2, sort_keys=True)
        print(f"records       : {args.out}", file=out)
    return 0 if all(record.passed for record in records) else 1


def _cmd_export(args, out) -> int:
    scenario = ExportScenario(ExportScenarioConfig(
        n_blocks=args.blocks,
        n_datacenters=args.datacenters,
        seed=args.seed,
    ))
    round_ = scenario.run_export()
    print(f"exported {round_.blocks_exported} blocks from replica {round_.full_from}", file=out)
    print(f"read   : {round_.read_s:.2f} s ({round_.read_s / round_.total_s * 100:.0f} %)", file=out)
    print(f"verify : {round_.verify_s:.3f} s", file=out)
    print(f"delete : {round_.delete_s:.2f} s", file=out)
    print(f"total  : {round_.total_s:.2f} s", file=out)
    return 0


def _cmd_reliability(args, out) -> int:
    if args.target is not None:
        needed = required_nodes_for_target(args.destroy_prob, args.target, args.correlation)
        if needed is None:
            print("target unreachable (common-cause floor or node cap)", file=out)
            return 1
        print(f"nodes required for loss probability <= {args.target:g}: {needed}", file=out)
        return 0
    survive = survival_probability([args.destroy_prob] * args.nodes,
                                   correlation=args.correlation)
    print(f"P(at least one record survives) with {args.nodes} nodes: {survive:.6f}", file=out)
    print(f"P(total data loss): {1 - survive:.2e}", file=out)
    return 0


def _cmd_requirements(args, out) -> int:
    result = run_scenario(ScenarioConfig(
        system="zugchain",
        seed=args.seed,
        cycle_time_s=args.cycle_ms / 1000.0,
        payload_bytes=args.payload,
    ), "sim", duration_s=args.duration, warmup_s=3.0)
    report = check_requirements(result, persist_payload_bytes=args.payload)
    for line in report.lines():
        print(line, file=out)
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZugChain reproduction: blockchain-based juridical recording",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_bench_parser(subparsers)
    _add_chaos_parser(subparsers)
    _add_export_parser(subparsers)
    _add_reliability_parser(subparsers)
    _add_requirements_parser(subparsers)
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "chaos": _cmd_chaos,
        "export": _cmd_export,
        "reliability": _cmd_reliability,
        "requirements": _cmd_requirements,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
