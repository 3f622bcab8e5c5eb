"""The simulated testbed (§V-A) as a reusable scenario.

Mirrors the hardware setup: four M-COM-class nodes (quad-core CPU model)
joined by 100 Mbit/s Ethernet for consensus, all reading an MVB whose
master emits one cycle every ``cycle_time_s`` with a configurable
consolidated payload size.  The same scenario builds either system under
test ("zugchain" or "baseline"), with optional per-node Byzantine specs
and bus reception faults.

:func:`run_scenario` runs a :class:`ScenarioConfig` on any of ``RUNTIMES``;
:class:`SimulatedCluster` is the simulator's steppable object for callers
that schedule faults or keep running after the window.
"""

from __future__ import annotations

from repro.bus.master import BusConfig, MvbMaster
from repro.chain.blockchain import PruneCertificate
from repro.chain.store import MemoryBlockStore
from repro.obs.check import OracleReport, check_trace
from repro.obs.metrics import ClusterMetrics, MetricsRegistry, fold_node
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.env import SimEnv
from repro.runtime.host import NodeHost
from repro.scenarios.recipe import (
    NodeRecipe,
    ScenarioConfig,
    ScenarioResult,
    head_hex,
    reference_latency,
    request_phases,
)
from repro.sim.kernel import Kernel
from repro.sim.monitor import LatencyRecorder, TimeSeries
from repro.sim.network import LinkSpec, Network
from repro.sim.resources import CostModel, CpuAccount, MemoryAccount
from repro.util.errors import ConfigError
from repro.util.rng import RngRegistry


class SimulatedCluster:
    """One assembled deployment, ready to run and measure."""

    def __init__(self, config: ScenarioConfig, tracer: Tracer | None = None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.kernel = Kernel()
        self.rng = RngRegistry(config.seed)
        self.model = CostModel()
        self.network = Network(
            self.kernel, self.rng.stream("ethernet"), LinkSpec.train_ethernet()
        )
        self.recipe = NodeRecipe(config, self.rng)
        self.ids = self.recipe.ids
        self.bft_config = self.recipe.bft_config
        self.keystore = self.recipe.keystore
        self.nsdb = self.recipe.nsdb
        self.generator = self.recipe.generator()
        self.master = MvbMaster(
            self.kernel, self.generator, BusConfig(cycle_time_s=config.cycle_time_s),
            self.rng,
        )

        self.cpus: dict[str, CpuAccount] = {}
        self.nodes: dict[str, object] = {}
        self.hosts: dict[str, NodeHost] = {}
        self.envs: dict[str, SimEnv] = {}
        self.memory_series: dict[str, TimeSeries] = {}
        #: Per-node durable storage surviving fail-stop crashes (§V-B: the
        #: blockchain is persisted on disk; here an in-memory byte store).
        self.stores: dict[str, MemoryBlockStore] = {}
        #: Every node that was ever fail-stopped — the oracle must excuse
        #: them even after they recovered (they legitimately missed requests
        #: while down; StateSync backfills the chain, not the trace).
        self._ever_crashed: set[str] = set()
        self.crash_counts: dict[str, int] = {i: 0 for i in self.ids}
        self.recovery_counts: dict[str, int] = {i: 0 for i in self.ids}

        for node_id in self.ids:
            cpu = CpuAccount(self.kernel, self.model, name=node_id)
            self.cpus[node_id] = cpu
            env = SimEnv(node_id, self.kernel, self.network, cpu, self.model)
            self.envs[node_id] = env
            self.stores[node_id] = MemoryBlockStore()
            node = self._build_node(node_id)
            host = NodeHost(node, self.network, cpu, self.model)
            host.attach_bus(self.master, config.bus_faults.get(node_id))
            self.nodes[node_id] = node
            self.hosts[node_id] = host
            self.memory_series[node_id] = TimeSeries(name=f"{node_id}.memory")
            crash_at = self.recipe.spec(node_id).crash_at_s
            if crash_at is not None:
                self.kernel.schedule(crash_at, self._crash_hook(node_id))

        self._started = False

    # -- hooks ---------------------------------------------------------------------

    def _build_node(self, node_id: str):
        """Construct one node instance (initial build and crash recovery).

        Rebuilds use the same env, CPU account, keypair, and (crucially) the
        same cached per-node RNG streams, so a recovered node is the same
        *identity* with fresh in-memory state — exactly what restarting the
        recorder process on an M-COM would produce.
        """
        return self.recipe.build_node(
            node_id,
            self.envs[node_id],
            tracer=self.tracer,
            block_store=self.stores[node_id],
            on_block=self._block_hook(node_id, self.cpus[node_id]),
        )

    def _block_hook(self, node_id: str, cpu: CpuAccount):
        def on_block(block) -> None:
            # Persisting the block to flash (paper: 5.03 ms for 80 kB blocks).
            cpu.charge_background(self.model.disk_write_cost(block.encoded_size()))
            self._auto_prune(node_id)
        return on_block

    def _crash_hook(self, node_id: str):
        def crash() -> None:
            self.crash_node(node_id)
        return crash

    def crash_node(self, node_id: str) -> None:
        """Fail-stop a node: all in-memory state is lost, storage survives.

        Beyond severing the network and bus, this tears down the dead
        incarnation completely: every armed timer dies with it and deferred
        CPU-pipeline work from before the crash is invalidated (epoch
        bump), so nothing the old incarnation scheduled can fire into the
        replacement built by :meth:`recover_node`.
        """
        self.network.crash(node_id)
        self.master.set_offline(node_id, True)
        self.envs[node_id].cancel_all_timers()
        self.hosts[node_id].advance_epoch()
        self._ever_crashed.add(node_id)
        self.crash_counts[node_id] += 1
        if self.tracer.enabled:
            self.tracer.emit("node.crashed", self.kernel.now, node_id,
                             count=self.crash_counts[node_id])

    def recover_node(self, node_id: str) -> None:
        """Restart a crashed node: fresh in-memory state over its surviving store.

        The replacement rehydrates itself from the store as it is built
        (:class:`~repro.core.node.ZugChainNode`) and then rejoins the live
        protocol — StateSync closes whatever gap accumulated while it was
        down once f+1 peer checkpoints vouch for the missed progress.
        """
        node = self.nodes[node_id] = self._build_node(node_id)
        self.hosts[node_id].node = node
        self.network.recover(node_id)
        self.master.set_offline(node_id, False)
        self.recovery_counts[node_id] += 1
        if self.tracer.enabled:
            self.tracer.emit("node.recovered", self.kernel.now, node_id,
                             count=self.recovery_counts[node_id],
                             height=node.chain.height)

    def _auto_prune(self, node_id: str) -> None:
        """Stand-in for a completed export: drop blocks older than the retention window.

        The real export protocol (Table II) lives in :mod:`repro.export`;
        steady-state resource runs only need its effect — a bounded chain.
        """
        if self.config.retention_s <= 0:
            return
        node = self.nodes[node_id]
        chain = node.chain
        horizon_us = int((self.kernel.now - self.config.retention_s) * 1e6)
        target = chain.base_height
        for height in range(chain.base_height + 1, chain.height):
            if chain.block_at(height).header.timestamp_us < horizon_us:
                target = height
            else:
                break
        if target > chain.base_height:
            base = chain.block_at(target)
            certificate = PruneCertificate(
                base_height=target,
                base_block_hash=base.block_hash,
                delete_signatures={"dc-sim-a": b"\x01" * 64, "dc-sim-b": b"\x02" * 64},
            )
            chain.prune_below(target, certificate)
            if self.tracer.enabled:
                self.tracer.emit("chain.pruned", self.kernel.now, node_id,
                                 below_height=target,
                                 block_hash=base.block_hash.hex())

    # -- running -----------------------------------------------------------------------

    def run(self, duration_s: float, warmup_s: float = 0.0) -> ScenarioResult:
        """Drive the bus for ``duration_s`` and collect measurements.

        ``warmup_s`` excludes the initial transient from latency, network,
        and CPU figures (counters reset after the warmup).
        """
        if not self._started:
            self.master.start()
            self._started = True
        if warmup_s > 0:
            self.kernel.run_until(warmup_s)
            self.network.reset_window()
            for cpu in self.cpus.values():
                cpu.reset_window()
        measure_start = self.kernel.now
        next_sample = measure_start
        end = measure_start + duration_s
        while next_sample <= end:
            self.kernel.run_until(next_sample)
            for node_id, node in self.nodes.items():
                self.memory_series[node_id].record(
                    self.kernel.now,
                    MemoryAccount.FIXED_OVERHEAD_BYTES
                    + node.memory_bytes()
                    + self.hosts[node_id].inbox_bytes,
                )
            next_sample += self.config.sample_interval_s
        self.kernel.run_until(end)
        return self._collect(measure_start, duration_s)

    # -- measurement -----------------------------------------------------------------------

    def latency_recorder(self, node_id: str) -> LatencyRecorder:
        return self.nodes[node_id].latency

    def primary_id(self) -> str:
        return self.recipe.primary_of([self.nodes[i].replica.view for i in self.ids])

    def collect_metrics(self) -> ClusterMetrics:
        """Per-node registries: the shared protocol fold plus crash accounting."""
        cluster = ClusterMetrics()
        for node_id in self.ids:
            registry = cluster.node(node_id)
            fold_node(registry, self.nodes[node_id])
            registry.counter("node.crashes").inc(self.crash_counts[node_id])
            registry.counter("node.recoveries").inc(self.recovery_counts[node_id])
        return cluster

    def aggregate_metrics(self) -> MetricsRegistry:
        """Cluster-level fold including every SimEnv's emission counters."""
        return self.collect_metrics().aggregate(envs=self.envs)

    def _collect(self, since: float, duration_s: float) -> ScenarioResult:
        primary = self.primary_id()
        latency = reference_latency(
            primary, {i: self.nodes[i].latency.since(since) for i in self.ids})
        net_utils = [self.network.window_utilization(i) for i in self.ids
                     if not self.network.is_crashed(i)]
        cpu_utils = [self.cpus[i].window_utilization() for i in self.ids
                     if not self.network.is_crashed(i)]
        mem_values = [v for i in self.ids for v in self.memory_series[i].values]
        phases: dict[str, dict[str, float]] = {}
        findings: list[dict] = []
        if self.tracer.enabled and hasattr(self.tracer, "iter_events"):
            report = self.check_invariants()
            phases = request_phases(report.spans, primary, since)
            findings = report.to_dicts()
        return ScenarioResult.measured(
            self.config, duration_s, latency,
            requests_logged=len(latency),
            requests_expected=int(duration_s / self.config.cycle_time_s),
            network_utilization=(sum(net_utils) / len(net_utils)) if net_utils else 0.0,
            cpu_utilization=max(cpu_utils) if cpu_utils else 0.0,
            memory_mean_bytes=(sum(mem_values) / len(mem_values)) if mem_values else 0.0,
            memory_peak_bytes=max(mem_values) if mem_values else 0.0,
            view_changes=max(
                self.nodes[i].replica.stats.view_changes_completed for i in self.ids),
            metrics=self.aggregate_metrics().counter_values(),
            phases=phases,
            findings=findings,
            chain_heights={i: self.nodes[i].chain.height for i in self.ids},
            head_hashes={i: head_hex(self.nodes[i].chain) for i in self.ids},
        )

    def faulty_node_ids(self) -> tuple[str, ...]:
        """Nodes the oracle's agreement invariants must not quantify over:
        configured Byzantine or crash specs, plus every node that was
        fail-stopped at any point (recovered nodes legitimately missed
        requests while down — StateSync backfills the chain, not the
        trace, so omission checks must still excuse them)."""
        faulty = set(self._ever_crashed)
        for node_id in self.ids:
            if self.recipe.spec(node_id).is_faulty or self.network.is_crashed(node_id):
                faulty.add(node_id)
        return tuple(sorted(faulty))

    def check_invariants(self, vc_bound_s: float | None = None) -> "OracleReport":
        """Run the invariant oracle over this run's trace (library API).

        Requires a recording tracer; scenario and fault tests call this
        directly, and traced ``run()``s surface the findings on
        :attr:`ScenarioResult.findings`.
        """
        if not (self.tracer.enabled and hasattr(self.tracer, "iter_events")):
            raise ConfigError(
                "check_invariants() needs a RecordingTracer; pass one to "
                "SimulatedCluster(tracer=...)"
            )
        return check_trace(
            self.tracer.iter_events(),
            faulty=self.faulty_node_ids(),
            vc_bound_s=vc_bound_s,
        )


# -- one entry point, the runtime as a parameter ------------------------------------


def _run_sim(config, duration_s, warmup_s, tracer) -> ScenarioResult:
    return SimulatedCluster(config, tracer).run(duration_s, warmup_s)


def _run_tcp(config, duration_s, warmup_s, tracer) -> ScenarioResult:
    from repro.runtime.asyncio_runtime import AsyncioCluster
    from repro.runtime.live import run_live

    recipe = NodeRecipe(config)
    cluster = AsyncioCluster(
        lambda env: recipe.build_node(env.node_id, env, tracer), n=config.n)
    return run_live(cluster, recipe, duration_s, warmup_s, tracer)


def _run_mp(config, duration_s, warmup_s, tracer) -> ScenarioResult:
    from repro.runtime.live import run_live
    from repro.runtime.multiprocess import MultiprocessCluster

    recipe = NodeRecipe(config)
    cluster = MultiprocessCluster(recipe, tracer)
    try:
        return run_live(cluster, recipe, duration_s, warmup_s, tracer)
    finally:
        cluster.join()


#: ``runtime`` value -> how a scenario runs there.  The live entries import
#: their runtime when called: a simulator run loads no event loop, thread or
#: process machinery.
RUNTIMES = {
    "sim": _run_sim,     # deterministic discrete-event simulator
    "tcp": _run_tcp,     # asyncio TCP sockets on localhost, wall-clock paced
    "mp": _run_mp,       # one OS process per node over multiprocessing queues
}


def run_scenario(
    config: ScenarioConfig,
    runtime: str,
    duration_s: float,
    warmup_s: float = 0.0,
    tracer: Tracer | None = None,
) -> ScenarioResult:
    """Run ``config`` on one of ``RUNTIMES`` and measure it.

    The bus runs for ``warmup_s + duration_s``; figures cover the last
    ``duration_s``.  A recording ``tracer`` holds the run's events afterwards
    and puts the oracle's verdict on :attr:`ScenarioResult.findings`.
    """
    if runtime not in RUNTIMES:
        raise ConfigError(f"unknown runtime {runtime!r} (known: {', '.join(RUNTIMES)})")
    return RUNTIMES[runtime](config, duration_s, warmup_s, tracer)
