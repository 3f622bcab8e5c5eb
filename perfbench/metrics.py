"""Metric tables and the statistics the harness is allowed to report.

``BENCHMARK.json`` lists the same names, units, directions and bounds;
``tests/test_benchmark_json.py`` keeps the two in step.

Two clocks (see README): metrics whose unit starts with ``sim_`` and all
counts come from the deterministic simulator and repeat exactly under a
seed (``exact=True``); everything else is host time or host memory and
is noisy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    meaning: str
    better: str = "lower"     # or "higher"
    bound: float | None = None  # end-to-end only: allowed worsening of the median
    exact: bool = False       # repeats exactly under a seed; compared for equality


END_TO_END: tuple[Metric, ...] = (
    Metric("wall_s", "s",
           "median host time of the timed section per repeat, at reference speed",
           bound=0.20),
    Metric("setup_s", "s",
           "harness.import_s + harness.build_s: what a user waits before the first "
           "event, at reference speed", bound=0.25),
    Metric("peak_rss_mb", "MB",
           "ru_maxrss of the workload's process after the last timed repeat", bound=0.10),
    Metric("recorded_share_pct", "%",
           "100 x (1 - failed/attempted): requests received that ended up recorded, "
           "or blocks exported", better="higher", bound=0.001, exact=True),
    Metric("sim_latency_p50_ms", "sim_ms",
           "median simulated latency of the operations the workload issues: bus "
           "reception -> logged on the reference node, or the one export round",
           bound=0.01, exact=True),
    Metric("sim_net_util_pct", "%",
           "mean egress utilisation of the replicas' link on the simulated clock "
           "(100 Mbit/s Ethernet; 8.5 Mbit/s LTE on export-round)",
           bound=0.01, exact=True),
)

#: The repo's packages, which are the layers of the per-layer table.
LAYERS = ("sim", "runtime", "bus", "bft", "core", "wire", "crypto", "chain",
          "export", "obs", "chaos", "scenarios")


def _layer_rows() -> list[Metric]:
    rows = []
    for layer in LAYERS:
        rows.append(Metric(f"{layer}.calls", "count",
                           f"calls into {layer} across its traced boundary", exact=True))
        rows.append(Metric(f"{layer}.self_ms", "ms",
                           f"host time inside {layer} minus time in child spans"))
        rows.append(Metric(f"{layer}.share_pct", "%",
                           f"{layer}.self_ms / traced wall time"))
    return rows


PER_LAYER: tuple[Metric, ...] = tuple(_layer_rows()) + (
    Metric("wire.encode_calls_per_req", "count", "encode() calls (also those inside encoded_size) per request", exact=True),
    Metric("wire.reencode_ratio", "ratio", "bytes produced by encode() / message bytes put on the simulated wire", exact=True),
    Metric("wire.encode_us_per_msg", "us", "encode_message() per captured emission, replayed after the traced repeat"),
    Metric("wire.decode_us_per_msg", "us", "decode_message() per captured emission, replayed after the traced repeat"),
    Metric("wire.bytes_per_msg", "count", "mean enveloped size of a captured emission", exact=True),
    Metric("crypto.sign_calls_per_req", "count", "KeyPair.sign calls per request", exact=True),
    Metric("crypto.verify_calls_per_req", "count", "KeyStore.verify calls per request", exact=True),
    Metric("crypto.sign_us", "us", "mean host time of one KeyPair.sign"),
    Metric("crypto.verify_us", "us", "mean host time of one KeyStore.verify"),
    Metric("sim.events_per_req", "count", "kernel events fired per request", exact=True),
    Metric("sim.events_per_s", "1/s", "kernel events per host second (untraced median)", better="higher"),
    Metric("sim.sim_x", "x", "simulated seconds per host second (untraced median)", better="higher"),
    Metric("sim.net_bytes_per_req", "count", "bytes put on the simulated wire per request", exact=True),
    Metric("sim.cpu_util_pct", "%", "ScenarioResult.cpu_utilization (max over nodes); 0 on export-round", exact=True),
    Metric("sim.mem_peak_mb", "MB", "ScenarioResult.memory_peak_bytes; 0 on export-round", exact=True),
    Metric("sim.latency_p95_ms", "sim_ms", "95th percentile of the latency behind sim_latency_p50_ms; 0 without ten samples beyond it", exact=True),
    Metric("sim.outage_s", "sim_s", "longest simulated interval in which the reference node logged nothing; 0 on export-round", exact=True),
    Metric("runtime.msgs_per_req", "count", "per-recipient message copies handed to the transport per request", exact=True),
    Metric("runtime.fanout_mean", "count", "copies per send/send_many/broadcast call", exact=True),
    Metric("runtime.timers_per_req", "count", "timers armed per request", exact=True),
    Metric("runtime.drops", "count", "copies the transport could not deliver", exact=True),
    Metric("bus.cycles", "count", "bus cycles emitted (the request count of the consensus workloads)", exact=True),
    Metric("bus.parse_us_per_cycle", "us", "BusReceiver.on_cycle host time per cycle, all nodes"),
    Metric("bus.gen_us_per_cycle", "us", "frames_for_cycle host time per cycle"),
    Metric("bft.on_message_us", "us", "mean host time of one PbftReplica.on_message, children included"),
    Metric("bft.redundant_vote_pct", "%", "votes discarded by vote_is_redundant before verification", exact=True),
    Metric("bft.view_changes", "count", "view changes completed (max over nodes)", exact=True),
    Metric("bft.view_changes_abandoned", "count", "view changes ended with no new view", exact=True),
    Metric("bft.gap_seqs_filled", "count", "sequence numbers filled from a peer's commit certificate", exact=True),
    Metric("bft.stale_messages", "count", "messages for a past view or sequence window", exact=True),
    Metric("core.filter_dup_pct", "%", "requests the layer's content filter dropped / requests it received", exact=True),
    Metric("core.soft_timeouts", "count", "soft timeouts fired", exact=True),
    Metric("core.hard_timeouts", "count", "hard timeouts fired", exact=True),
    Metric("core.forwards_sent", "count", "requests forwarded to the primary", exact=True),
    Metric("core.sync_completed", "count", "state transfers completed", exact=True),
    Metric("core.sync_retried", "count", "state transfers retried", exact=True),
    Metric("chain.blocks_built", "count", "blocks cut on the reference node, or blocks exported", exact=True),
    Metric("chain.store_write_us", "us", "mean host time of MemoryBlockStore.write"),
    Metric("chain.store_load_us", "us", "mean host time of MemoryBlockStore.load_all (crash recovery)"),
    Metric("chain.append_us", "us", "mean host time of Blockchain.append"),
    Metric("export.sim_total_s", "sim_s", "ExportRound.total_s (Table II)", exact=True),
    Metric("export.sim_read_s", "sim_s", "ExportRound.read_s", exact=True),
    Metric("export.sim_verify_s", "sim_s", "ExportRound.verify_s", exact=True),
    Metric("export.sim_delete_s", "sim_s", "ExportRound.delete_s", exact=True),
    Metric("export.blocks_per_s", "1/sim_s", "blocks exported per simulated second", better="higher", exact=True),
    Metric("export.retries", "count", "read phases re-issued", exact=True),
    Metric("obs.events_recorded", "count", "trace events recorded by the program's RecordingTracer", exact=True),
    Metric("obs.emit_us", "us", "mean host time of RecordingTracer.emit"),
    Metric("obs.check_ms", "ms", "mean host time of one oracle pass (check_trace)"),
    Metric("scenarios.recover_ms", "ms", "mean host time of SimulatedCluster.recover_node"),
    Metric("harness.import_s", "s", "median of fresh-interpreter imports of what the workload needs, at reference speed"),
    Metric("harness.build_s", "s", "median untimed construction of the cluster or export scenario, at reference speed"),
    Metric("harness.wall_raw_s", "s", "median timed-section time as the clock read it, before calibration"),
    Metric("harness.host_speed_x", "x", "reference calibration time / this run's median calibration time", better="higher"),
    Metric("harness.repeat_iqr_pct", "%", "p25-p75 spread of this run's calibrated wall times / their median"),
    Metric("harness.trace_overhead_x", "x", "traced repeat wall / untraced raw median"),
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def highest_supported_percentile(n: int) -> float | None:
    """The highest of p99, p95 and p90 with at least ten samples beyond it.

    25 host timings support none (so only median and quartiles are
    reported); 250 latency samples support p95 (12 beyond) and not p99.
    """
    for pct in (99.0, 95.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, minimum and count of a few host timings."""
    if len(values) < 2:
        only = values[0]
        return {"median": only, "p25": only, "p75": only, "min": only, "n": len(values)}
    p25, median, p75 = statistics.quantiles(values, n=4)
    return {"median": median, "p25": p25, "p75": p75, "min": min(values), "n": len(values)}


def spread_share(summary: dict[str, float]) -> float:
    """A sample's own p25-p75 distance as a share of its median."""
    return (summary["p75"] - summary["p25"]) / summary["median"]
