"""The live driver: one wall-clock run loop for every real-time runtime.

A live runtime hosts recipe-built nodes somewhere real — TCP sockets on one
event loop, one OS process per node — and supplies a :class:`LiveCluster`:
start, deliver a bus cycle, poll progress, stop with finals.  The rest is
here once: the bus feed (the recipe's seeded signal generator, paced by the
wall clock), the wait until every node logged every cycle, and the same
:class:`~repro.scenarios.recipe.ScenarioResult` the simulator returns.

Timestamps of a live run are debug-grade: each node's ``env.now()`` counts
from that env's first clock read and a real scheduler paces the run, so a
re-run is never byte-identical.  Ordering is what holds (cluster-wide
``seq``, per-node monotonic time, a digest's first ``bus.rx`` anywhere before
every ``req.logged`` of it — per node too where the cycle is delivered in
order, but a multiprocess backup may log from consensus traffic first).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Protocol

# A peer may send any tagged message, and a class's tag registers when its
# module loads; the export family is the one no node module imports.
import repro.export.messages  # noqa: F401
from repro.bus.frames import BusCycleData
from repro.obs.check import check_trace
from repro.obs.metrics import MetricsRegistry, fold_env_counters, fold_node
from repro.obs.trace import TraceEvent, Tracer
from repro.scenarios.recipe import (
    NodeRecipe,
    ScenarioConfig,
    ScenarioResult,
    head_hex,
    reference_latency,
    request_phases,
)
from repro.sim.monitor import LatencyRecorder
from repro.util.errors import ConfigError

#: How long a run may take to settle after the last bus cycle, and a stopped
#: cluster to hand in its finals.  A ceiling, not a pace: a healthy run is
#: done within a few round trips.
SETTLE_CEILING_S = 30.0
POLL_INTERVAL_S = 0.05


@dataclass
class NodeFinal:
    """What one node reports when the run stops.

    Plain picklable data: a multiprocess worker sends it home over a queue.
    """

    chain_height: int
    head_hash: str
    view: int
    counters: dict[str, int]
    latency: LatencyRecorder
    #: This node's trace shard, where each process records its own.
    trace: list[TraceEvent] = field(default_factory=list)


def node_final(node: Any, env: Any, trace: list[TraceEvent] | None = None) -> NodeFinal:
    registry = MetricsRegistry(node.id)
    fold_node(registry, node)
    fold_env_counters(registry, {node.id: env})
    return NodeFinal(
        chain_height=node.chain.height,
        head_hash=head_hex(node.chain),
        view=node.replica.view,
        counters=registry.counter_values(),
        latency=node.latency,
        trace=trace or [],
    )


class LiveCluster(Protocol):
    """What a real-time runtime supplies to :func:`run_live`."""

    #: Node id -> what it raised; a node listed here will never finish.
    errors: dict[str, str]

    async def start(self) -> None: ...

    def deliver(self, cycle: BusCycleData) -> None:
        """Hand one bus cycle to every node (the MVB is a broadcast medium)."""

    def poll(self) -> dict[str, int]:
        """Requests logged so far, per node, as far as is known; never blocks."""

    async def stop(self) -> None:
        """Stop the nodes; a traced run's events are in the caller's tracer after."""

    def finals(self) -> dict[str, NodeFinal]:
        """After :meth:`stop`: the final report of every node that made one."""


def refuse_unsupported(config: ScenarioConfig) -> None:
    """Reject what only the simulator can do, rather than run without it."""
    if config.bus_faults:
        raise ConfigError("bus_faults need the simulated bus master (runtime 'sim')")
    crashing = sorted(i for i, spec in config.byzantine.items() if spec.crash_at_s is not None)
    if crashing:
        raise ConfigError(f"crash_at_s on {crashing} needs the simulator (runtime 'sim')")


async def _feed(cluster: LiveCluster, recipe: NodeRecipe, cycles: int) -> None:
    """One bus cycle every ``cycle_time_s`` of wall time.

    Not an :class:`~repro.bus.master.MvbMaster`: no kernel to schedule on,
    and no MVB minimum either, so tests can run faster than a real bus.
    """
    generator = recipe.generator()
    cycle_time_s = recipe.config.cycle_time_s
    for cycle_no in range(1, cycles + 1):
        cluster.deliver(generator.frames_for_cycle(
            cycle_no, cycle_time_s, timestamp_us=int(cycle_no * cycle_time_s * 1e6)))
        await asyncio.sleep(cycle_time_s)


async def _settled(cluster: LiveCluster, ids: list[str], target: int) -> bool:
    """Wait until every node logged ``target`` requests; False on error or ceiling."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + SETTLE_CEILING_S
    while not cluster.errors and loop.time() < deadline:
        logged = cluster.poll()
        if all(logged.get(node_id, 0) >= target for node_id in ids):
            return True
        await asyncio.sleep(POLL_INTERVAL_S)
    return False


async def _drive(cluster: LiveCluster, recipe: NodeRecipe, warm: int, cycles: int) -> bool:
    try:
        await cluster.start()
        await _feed(cluster, recipe, warm + cycles)
        return await _settled(cluster, recipe.ids, warm + cycles)
    finally:
        await cluster.stop()


def run_live(cluster: LiveCluster, recipe: NodeRecipe, duration_s: float,
             warmup_s: float = 0.0, tracer: Tracer | None = None) -> ScenarioResult:
    """Run ``recipe``'s scenario on ``cluster`` in real time.

    As on the simulator the bus runs for ``warmup_s + duration_s`` and the
    latency figures cover the last ``duration_s``.
    """
    config = recipe.config
    refuse_unsupported(config)
    cycles = max(1, round(duration_s / config.cycle_time_s))
    warm = round(warmup_s / config.cycle_time_s)
    completed = asyncio.run(_drive(cluster, recipe, warm, cycles))
    finals = cluster.finals()

    views = [final.view for final in finals.values()]
    primary = recipe.primary_of(views) if views else recipe.ids[0]
    latency = reference_latency(
        primary, {i: final.latency.since(warmup_s) for i, final in finals.items()})
    phases: dict[str, dict[str, float]] = {}
    findings: list[dict] = []
    if tracer is not None and tracer.enabled and hasattr(tracer, "iter_events"):
        faulty = [i for i in recipe.ids if recipe.spec(i).is_faulty]
        report = check_trace(tracer.iter_events(), faulty=faulty)
        phases = request_phases(report.spans, primary, warmup_s)
        findings = report.to_dicts()
    metrics = MetricsRegistry("cluster")
    for final in finals.values():
        metrics.inc_from(final.counters)
    # Every node, not every report: one that died logged nothing it can vouch for.
    logged = min(finals[i].counters["requests.logged"] if i in finals else 0
                 for i in recipe.ids)
    return ScenarioResult.measured(
        config, duration_s, latency,
        requests_logged=max(0, logged - warm),
        requests_expected=cycles,
        network_utilization=None,
        cpu_utilization=None,
        memory_mean_bytes=None,
        memory_peak_bytes=None,
        view_changes=max(
            (final.counters["bft.view_changes_completed"] for final in finals.values()),
            default=0),
        metrics=metrics.counter_values(),
        phases=phases,
        findings=findings,
        chain_heights={i: final.chain_height for i, final in finals.items()},
        head_hashes={i: final.head_hash for i, final in finals.items()},
        completed=completed and not cluster.errors,
        errors=dict(cluster.errors),
    )
