"""The four workloads.

Each workload has three steps the harness calls in order:

``build(seed)``
    untimed construction from the seed (the program sees only this);
``timed(state)``
    the timed section, nothing else;
``outcome(state, raw)``
    untimed: correctness checks and every number that repeats exactly
    under a seed (simulated-clock results and the program's counters).

All four are n=4, f=1, PBFT, HMAC signatures as ``SimulatedCluster``
builds them.  The bus master is an open loop on the simulated clock: one
request per cycle whatever the backlog, and latency counts from
reception, which is when the request was due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from perfbench.metrics import highest_supported_percentile


@dataclass
class Outcome:
    """What one repeat produced, apart from host time."""

    head: str
    events_fired: int
    sim_seconds: float
    requests: int                 # denominator of the per-request ratios
    attempted: int
    failed: int
    exact: dict[str, float]       # metric name -> value, repeats under a seed
    counters: dict[str, int]      # the program's raw counters, for span ratios
    problems: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """What the determinism contract says every repeat must share."""
        sim = tuple(sorted((name, value) for name, value in self.exact.items()
                           if name.startswith(("sim_", "sim.", "export.sim_"))))
        return (self.head, self.events_fired, sim)


def _latency_metrics(latency) -> dict[str, float]:
    """Percentiles and the longest silence of one node's ``LatencyRecorder``."""
    tail = highest_supported_percentile(len(latency))
    times = latency.times
    return {
        "sim_latency_p50_ms": latency.percentile(50.0) * 1e3,
        "sim.latency_p95_ms": (latency.percentile(95.0) * 1e3
                               if tail is not None and tail >= 95.0 else 0.0),
        "sim.outage_s": max((b - a for a, b in zip(times, times[1:])), default=0.0),
    }


def _cluster_outcome(cluster, result, reference: str, latency, attempted: int,
                     failed: int, problems: list[str], events_fired: int,
                     sim_seconds: float, tracer=None) -> Outcome:
    """Shared by the three consensus workloads."""
    heads = {cluster.nodes[node_id].chain.head.block_hash.hex()
             for node_id in cluster.ids if not cluster.network.is_crashed(node_id)}
    if len(heads) != 1:
        problems.append(f"surviving nodes ended on {len(heads)} different heads")
    counters = cluster.aggregate_metrics().counter_values()
    requests = cluster.master.cycles_emitted
    exact = {
        **_latency_metrics(latency),
        "sim_net_util_pct": result.network_utilization * 100.0,
        "sim.events_per_req": events_fired / requests,
        "sim.net_bytes_per_req": cluster.network.stats.total_bytes_sent() / requests,
        "sim.cpu_util_pct": result.cpu_utilization * 100.0,
        "sim.mem_peak_mb": result.memory_peak_bytes / 1e6,
        "runtime.msgs_per_req": counters["env.messages_emitted"] / requests,
        "runtime.timers_per_req": counters["env.timers_set"] / requests,
        "runtime.drops": counters["env.drops"],
        "bus.cycles": requests,
        "bft.view_changes": result.view_changes,
        "bft.view_changes_abandoned": counters["bft.view_changes_abandoned"],
        "bft.gap_seqs_filled": counters["bft.gap_seqs_filled"],
        "bft.stale_messages": counters["bft.stale_messages"],
        "core.filter_dup_pct": 100.0 * counters["layer.filtered_duplicates"]
                               / counters["layer.received"],
        "core.soft_timeouts": counters["layer.soft_timeouts"],
        "core.hard_timeouts": counters["layer.hard_timeouts"],
        "core.forwards_sent": counters["layer.forwards_sent"],
        "core.sync_completed": counters["sync.completed"],
        "core.sync_retried": counters["sync.retried"],
        "chain.blocks_built": cluster.nodes[reference].builder.blocks_built,
        "obs.events_recorded": len(tracer) if tracer is not None else 0,
    }
    return Outcome(
        head=min(heads), events_fired=events_fired, sim_seconds=sim_seconds,
        requests=requests,
        attempted=attempted, failed=failed, exact=exact, counters=counters,
        problems=problems,
    )


@dataclass(frozen=True)
class Steady:
    """Fault-free operation at the paper's 64 ms cycle; payload size is the knob."""

    name: str
    why: str
    payload_bytes: int
    measure_s: float
    warmup_s: float = 3.0
    cycle_time_s: float = 0.064
    imports: tuple[str, ...] = ("repro.scenarios.cluster",)

    def build(self, seed: int):
        from repro.scenarios.cluster import ScenarioConfig, SimulatedCluster

        return SimulatedCluster(ScenarioConfig(
            system="zugchain", seed=seed, cycle_time_s=self.cycle_time_s,
            payload_bytes=self.payload_bytes, block_size=10,
        ))

    def timed(self, cluster):
        return cluster.run(self.measure_s, warmup_s=self.warmup_s)

    def outcome(self, cluster, result) -> Outcome:
        events_fired, sim_seconds = cluster.kernel.events_fired, cluster.kernel.now
        # Untimed drain with the bus stopped: a request emitted within one
        # latency of the end is in flight, not lost, and a block being cut
        # must reach every node before heads are compared.
        cluster.master.stop()
        cluster.kernel.run_until(sim_seconds + 1.0)
        reference = cluster.primary_id()
        latency = cluster.latency_recorder(reference).since(self.warmup_s)
        # The master ticks at k * cycle_time_s from t=0, so the cycles that
        # fell into the warm-up are the whole multiples below warmup_s.
        in_window = cluster.master.cycles_emitted - int(self.warmup_s / self.cycle_time_s)
        failed = max(0, in_window - len(latency))
        return _cluster_outcome(cluster, result, reference, latency,
                                attempted=in_window, failed=failed, problems=[],
                                events_fired=events_fired, sim_seconds=sim_seconds)


@dataclass(frozen=True)
class CrashStorm:
    """The fault run: primary crash, a silenced new primary, a backup crash."""

    name: str
    why: str
    run_s: float = 20.0
    settle_s: float = 4.0
    reference: str = "node-3"     # the one node the schedule never touches
    imports: tuple[str, ...] = ("repro.scenarios.cluster", "repro.chaos", "repro.obs.trace")

    def schedule(self):
        from repro.chaos import CrashRecover, FaultSchedule, LossWindow

        # node-0 is the view-0 primary and node-1 the view-1 primary.  The
        # loss window is total (probability 1.0) on purpose: at 0.1 which
        # messages are lost depends on the seed and the run turns chaotic
        # (17k-53k kernel events and oracle findings on 6 of 30 seeds), so no
        # bound could hold across seeds.  README, "crash-storm".
        return FaultSchedule((
            CrashRecover(3.0, 2.0, "node-0"),
            LossWindow(8.0, 1.5, "node-1", "*", 1.0),
            CrashRecover(11.0, 2.0, "node-2"),
        ))

    def build(self, seed: int):
        from repro.obs.trace import RecordingTracer
        from repro.scenarios.cluster import ScenarioConfig, SimulatedCluster

        tracer = RecordingTracer()
        cluster = SimulatedCluster(ScenarioConfig(
            system="zugchain", seed=seed, cycle_time_s=0.064,
            payload_bytes=1024, block_size=10,
        ), tracer=tracer)
        return cluster, tracer

    def timed(self, state):
        from repro.chaos import ChaosInjector

        cluster, _ = state
        ChaosInjector(cluster, self.schedule()).install()
        result = cluster.run(self.run_s)
        # Settle with the bus stopped so in-flight consensus and recoveries
        # finish and the verdict sees the converged end state.
        cluster.master.stop()
        cluster.kernel.run_until(cluster.kernel.now + self.settle_s)
        return result, cluster.check_invariants()

    def outcome(self, state, raw) -> Outcome:
        cluster, tracer = state
        result, report = raw
        problems = [f"oracle: {finding}" for finding in report.to_dicts()]
        if result.view_changes < 1:
            problems.append("no view change completed: the schedule did not bite")
        node = cluster.nodes[self.reference]
        # Counted by digest: view changes and StateSync make requests_logged
        # over- and under-count what the reference node owes the record.
        received = [event.get("digest") for event in tracer.iter_events()
                    if event.name == "bus.rx" and event.node == self.reference]
        kept = {signed.digest.hex()
                for height in range(node.chain.base_height + 1, node.chain.height + 1)
                for signed in node.chain.block_at(height).requests}
        kept.update(digest.hex() for digest in node.builder.pending_digests())
        failed = sum(1 for digest in received if digest not in kept)
        return _cluster_outcome(
            cluster, result, self.reference, cluster.latency_recorder(self.reference),
            attempted=len(received), failed=failed, problems=problems,
            events_fired=cluster.kernel.events_fired, sim_seconds=cluster.kernel.now,
            tracer=tracer,
        )


@dataclass(frozen=True)
class ExportRound:
    """Table II: one data centre exports a seeded chain over LTE."""

    name: str
    why: str
    n_blocks: int = 2000
    payload_bytes: int = 1024
    imports: tuple[str, ...] = ("repro.export.scenario",)

    def build(self, seed: int):
        from repro.export.scenario import ExportScenario, ExportScenarioConfig

        return ExportScenario(ExportScenarioConfig(
            n_blocks=self.n_blocks, payload_bytes=self.payload_bytes, seed=seed,
        ))

    def timed(self, scenario):
        return scenario.run_export()

    def outcome(self, scenario, round_) -> Outcome:
        problems = []
        if not round_.complete:
            problems.append("export round did not complete")
        if round_.blocks_exported != self.n_blocks:
            problems.append(f"exported {round_.blocks_exported} of {self.n_blocks} blocks")
        requests = max(1, round_.blocks_exported * scenario.config.requests_per_block)
        endpoints = {**scenario.handlers, **scenario.datacenters}
        counters = scenario.collect_metrics().aggregate(
            envs={name: endpoint.env for name, endpoint in endpoints.items()}
        ).counter_values()
        utilisation = [scenario.network.window_utilization(replica)
                       for replica in scenario.replica_ids]
        exact = {
            "sim_latency_p50_ms": round_.total_s * 1e3,
            "sim_net_util_pct": 100.0 * sum(utilisation) / len(utilisation),
            "sim.events_per_req": scenario.kernel.events_fired / requests,
            "sim.net_bytes_per_req": scenario.network.stats.total_bytes_sent() / requests,
            "runtime.msgs_per_req": counters["env.messages_emitted"] / requests,
            "runtime.timers_per_req": counters["env.timers_set"] / requests,
            "runtime.drops": counters["env.drops"],
            "chain.blocks_built": round_.blocks_exported,
            "export.sim_total_s": round_.total_s,
            "export.sim_read_s": round_.read_s,
            "export.sim_verify_s": round_.verify_s,
            "export.sim_delete_s": round_.delete_s,
            "export.blocks_per_s": (round_.blocks_exported / round_.total_s
                                    if round_.total_s > 0 else 0.0),
            "export.retries": round_.retries,
        }
        return Outcome(
            head=scenario.datacenters["dc-0"].archive.head.block_hash.hex(),
            events_fired=scenario.kernel.events_fired,
            sim_seconds=scenario.kernel.now, requests=requests,
            attempted=self.n_blocks, failed=self.n_blocks - round_.blocks_exported,
            exact=exact, counters=counters,
            problems=problems,
        )


WORKLOADS: dict[str, Any] = {w.name: w for w in (
    Steady(
        name="zug-steady", payload_bytes=1024, measure_s=30.0,
        why="paper's main operating point (64 ms, 1 KiB): per-message work in "
            "wire, bft, sim and runtime dominates host time",
    ),
    Steady(
        name="zug-bulk", payload_bytes=8192, measure_s=16.0,
        why="8 KiB JRU payloads: byte-proportional bus work dominates, so a "
            "per-message optimisation should barely move it",
    ),
    CrashStorm(
        name="crash-storm",
        why="fixed fault schedule: the same layers through view change, gap "
            "fill, store read-back, StateSync and the recording tracer",
    ),
    ExportRound(
        name="export-round",
        why="Table II export of 2000 blocks: bypasses consensus, so it is the "
            "no-change prediction for consensus work and the home of chain/export",
    ),
)}
