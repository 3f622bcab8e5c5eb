"""The simulated testbed (§V-A) as a reusable scenario.

Mirrors the hardware setup: four M-COM-class nodes (quad-core CPU model)
joined by 100 Mbit/s Ethernet for consensus, all reading an MVB whose
master emits one cycle every ``cycle_time_s`` with a configurable
consolidated payload size.  The same scenario builds either system under
test ("zugchain" or "baseline"), with optional per-node Byzantine specs
and bus reception faults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.bft import BACKENDS
from repro.bft.config import BftConfig
from repro.bus.faults import ReceptionFaultConfig
from repro.bus.generator import GeneratorConfig, TrainDynamicsGenerator
from repro.bus.master import BusConfig, MvbMaster
from repro.bus.nsdb import standard_jru_catalog
from repro.bft.checkpoint import CheckpointCertificate
from repro.chain.blockchain import PruneCertificate
from repro.chain.store import MemoryBlockStore
from repro.core.baseline import BaselineNode
from repro.core.layer import ZugChainConfig
from repro.core.node import ZugChainNode
from repro.crypto.keys import KeyStore, default_scheme
from repro.faults.behaviors import ByzantineSpec, make_zugchain_node
from repro.obs.check import OracleReport, check_trace
from repro.obs.metrics import ClusterMetrics, MetricsRegistry
from repro.obs.spans import pair_request_spans
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.env import SimEnv
from repro.runtime.host import NodeHost
from repro.sim.kernel import Kernel
from repro.sim.monitor import LatencyRecorder, TimeSeries
from repro.sim.network import LinkSpec, Network
from repro.sim.resources import CostModel, CpuAccount, MemoryAccount
from repro.util.errors import ConfigError
from repro.util.rng import RngRegistry


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs; defaults reproduce the paper's main setting."""

    system: str = "zugchain"             # "zugchain" | "baseline"
    n: int = 4
    seed: int = 42
    cycle_time_s: float = 0.064
    payload_bytes: int = 1024
    block_size: int = 10
    soft_timeout_s: float = 0.250
    hard_timeout_s: float = 0.250
    view_change_timeout_s: float = 0.500
    retention_s: float = 45.0            # auto-prune window (export stand-in)
    sample_interval_s: float = 1.0
    preprepare_cancels_soft: bool = True
    filtering_enabled: bool = True
    max_open_per_node: int = 16
    bft_backend: str = "pbft"            # "pbft" | "linear"
    bus_faults: dict[str, ReceptionFaultConfig] = field(default_factory=dict)
    byzantine: dict[str, ByzantineSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.system not in ("zugchain", "baseline"):
            raise ConfigError(f"unknown system {self.system!r}")
        if self.bft_backend not in BACKENDS:
            raise ConfigError(f"unknown BFT backend {self.bft_backend!r}")
        if self.bft_backend != "pbft":
            # Both would silently run PBFT replicas: the baseline node is
            # PBFT behind a client, the delaying primary a PbftReplica.
            if self.system == "baseline":
                raise ConfigError("the baseline system runs on the pbft backend only")
            delaying = sorted(node_id for node_id, spec in self.byzantine.items()
                              if spec.preprepare_delay_s > 0)
            if delaying:
                raise ConfigError(
                    f"preprepare_delay_s on {delaying} needs the pbft backend")
        if self.n < 4:
            raise ConfigError("the testbed requires n >= 4 (f >= 1)")


@dataclass
class ScenarioResult:
    """Measurements of one run, in the units the paper reports."""

    system: str
    cycle_time_s: float
    payload_bytes: int
    duration_s: float
    mean_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    requests_logged: int
    requests_expected: int
    network_utilization: float          # fraction of the 100 Mbit/s egress (mean over nodes)
    cpu_utilization: float              # fraction of total 4-core CPU (max over nodes)
    memory_mean_bytes: float
    memory_peak_bytes: float
    view_changes: int
    # Aggregated cluster counters (layer/bft/env prefixes) and, when the run
    # was traced, the per-phase latency decomposition from span pairing.
    metrics: dict[str, int] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    # Invariant-oracle findings (repro.obs.check) over the trace, as plain
    # dicts so results stay picklable across sweep workers.  Empty for
    # untraced runs and for traced runs where every invariant holds.
    findings: list[dict] = field(default_factory=list)

    def summary_row(self) -> str:
        return (
            f"{self.system:9s} cycle={self.cycle_time_s * 1000:6.1f}ms "
            f"payload={self.payload_bytes:5d}B "
            f"lat={self.mean_latency_s * 1000:8.2f}ms "
            f"net={self.network_utilization * 100:6.2f}% "
            f"cpu={self.cpu_utilization * 100:5.1f}% "
            f"mem={self.memory_mean_bytes / 1e6:6.2f}MB"
        )


class SimulatedCluster:
    """One assembled deployment, ready to run and measure."""

    def __init__(self, config: ScenarioConfig, tracer: Tracer | None = None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.kernel = Kernel()
        self.rng = RngRegistry(config.seed)
        self.model = CostModel()
        self.scheme = default_scheme(fast=True)
        self.network = Network(
            self.kernel, self.rng.stream("ethernet"), LinkSpec.train_ethernet()
        )
        self.nsdb = standard_jru_catalog()
        self.generator = TrainDynamicsGenerator(
            self.nsdb,
            GeneratorConfig(target_payload_bytes=config.payload_bytes),
            self.rng,
        )
        self.master = MvbMaster(
            self.kernel, self.generator, BusConfig(cycle_time_s=config.cycle_time_s),
            self.rng,
        )

        self.ids = [f"node-{i}" for i in range(config.n)]
        self.bft_config = BftConfig(
            replica_ids=tuple(self.ids),
            checkpoint_interval=config.block_size,
            view_change_timeout_s=config.view_change_timeout_s,
            max_open_per_node=config.max_open_per_node,
        )
        self.keystore = KeyStore(scheme=self.scheme)
        keypairs = {}
        for node_id in self.ids:
            pair = self.scheme.derive_keypair(node_id.encode())
            keypairs[node_id] = pair
            self.keystore.register(node_id, pair.public)
        self._keypairs = keypairs

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

        self._zug_config = ZugChainConfig(
            soft_timeout_s=config.soft_timeout_s,
            hard_timeout_s=config.hard_timeout_s,
            checkpoint_interval=config.block_size,
            max_open_per_node=config.max_open_per_node,
            preprepare_cancels_soft=config.preprepare_cancels_soft,
            filtering_enabled=config.filtering_enabled,
        )

        for node_id in self.ids:
            cpu = CpuAccount(self.kernel, self.model, name=node_id)
            self.cpus[node_id] = cpu
            env = SimEnv(node_id, self.kernel, self.network, cpu, self.model)
            self.envs[node_id] = env
            if self.tracer.enabled and hasattr(self.tracer, "bind_clock"):
                # Bind the env's causal clock so this node's events carry
                # per-node identity and cause edges.
                self.tracer.bind_clock(node_id, env.causal)
            self.stores[node_id] = MemoryBlockStore()
            node = self._build_node(node_id)
            host = NodeHost(node, self.network, cpu, self.model)
            host.attach_bus(self.master, config.bus_faults.get(node_id))
            self.nodes[node_id] = node
            self.hosts[node_id] = host
            self.memory_series[node_id] = TimeSeries(name=f"{node_id}.memory")
            spec = config.byzantine.get(node_id, ByzantineSpec())
            crash_at = spec.crash_at_s
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
        spec = self.config.byzantine.get(node_id, ByzantineSpec())
        env = self.envs[node_id]
        cpu = self.cpus[node_id]
        if self.config.system == "zugchain":
            return make_zugchain_node(
                spec,
                self.rng.stream(f"byzantine:{node_id}"),
                env=env,
                bft_config=self.bft_config,
                zug_config=self._zug_config,
                keypair=self._keypairs[node_id],
                keystore=self.keystore,
                nsdb=self.nsdb,
                on_block=self._block_hook(node_id, cpu),
                replica_cls=BACKENDS[self.config.bft_backend],
                block_store=self.stores[node_id],
                tracer=self.tracer,
            )
        return BaselineNode(
            env=env,
            bft_config=self.bft_config,
            keypair=self._keypairs[node_id],
            keystore=self.keystore,
            nsdb=self.nsdb,
            on_block=self._block_hook(node_id, cpu),
            tracer=self.tracer,
        )

    def _block_hook(self, node_id: str, cpu: CpuAccount):
        def on_block(block) -> None:
            # Persisting the block to flash (paper: 5.03 ms for 80 kB blocks).
            cpu.charge_background(self.model.disk_write_cost(block.encoded_size()))
            # The stable checkpoint certificate is fsynced alongside the
            # block so a recovering replica can restore its watermarks
            # without waiting for a full state transfer.
            node = self.nodes[node_id]
            replica = getattr(node, "replica", None)
            store = self.stores.get(node_id)
            if replica is not None and store is not None:
                certificate = replica.latest_stable_checkpoint()
                if certificate is not None:
                    store.write_checkpoint(certificate.encode())
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
        """Restart a crashed node: fresh in-memory state, rehydrated chain.

        The replacement node replays its durable store (blocks appended
        with full verification, the persisted stable checkpoint fast-
        forwarding the replica's watermarks) and then rejoins the live
        protocol — StateSync closes whatever gap accumulated while it was
        down once f+1 peer checkpoints vouch for the missed progress.
        """
        node = self._build_node(node_id)
        store = self.stores.get(node_id)
        if store is not None and hasattr(node, "chain"):
            for block in store.load_all():
                if block.height == node.chain.height + 1:
                    node.chain.append(block)
                    # Replayed requests count as logged for duplicate
                    # filtering, exactly as on the state-transfer path.
                    if hasattr(node, "layer"):
                        for signed in block.requests:
                            node.layer.on_synced(signed, block.header.last_sn)
            encoded_cert = store.read_checkpoint()
            replica = getattr(node, "replica", None)
            if encoded_cert is not None and replica is not None:
                certificate = CheckpointCertificate.decode(encoded_cert)
                if certificate.block_height <= node.chain.height:
                    replica.fast_forward(certificate)
        self.nodes[node_id] = node
        self.hosts[node_id].node = node
        self.network.recover(node_id)
        self.master.set_offline(node_id, False)
        self.recovery_counts[node_id] += 1
        if self.tracer.enabled:
            self.tracer.emit("node.recovered", self.kernel.now, node_id,
                             count=self.recovery_counts[node_id],
                             height=getattr(getattr(node, "chain", None),
                                            "height", 0))

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
        views = [self.nodes[i].replica.view for i in self.ids]
        view = max(set(views), key=views.count)
        return self.bft_config.primary_of_view(view)

    def collect_metrics(self) -> ClusterMetrics:
        """Per-node registries built from the protocol stats objects.

        Populated at collection time from the counters the protocol already
        maintains (:class:`LayerStats`, :class:`ReplicaStats`), so metrics
        cost nothing on the hot path and exist for untraced runs too.
        """
        cluster = ClusterMetrics()
        for node_id in self.ids:
            node = self.nodes[node_id]
            registry = cluster.node(node_id)
            registry.inc_from(asdict(node.replica.stats), prefix="bft.")
            layer = getattr(node, "layer", None)
            if layer is not None:
                registry.inc_from(asdict(layer.stats), prefix="layer.")
            registry.gauge("chain.height").set(node.chain.height)
            registry.counter("requests.logged").inc(node.requests_logged)
            sync = getattr(node, "statesync", None)
            if sync is not None:
                registry.counter("sync.completed").inc(sync.syncs_completed)
                registry.counter("sync.rejected").inc(sync.syncs_rejected)
                registry.counter("sync.retried").inc(sync.syncs_retried)
            registry.counter("node.crashes").inc(self.crash_counts[node_id])
            registry.counter("node.recoveries").inc(self.recovery_counts[node_id])
        return cluster

    def aggregate_metrics(self) -> MetricsRegistry:
        """Cluster-level fold including every SimEnv's emission counters."""
        return self.collect_metrics().aggregate(envs=self.envs)

    def _collect(self, since: float, duration_s: float) -> ScenarioResult:
        primary = self.primary_id()
        latency = self.nodes[primary].latency.since(since)
        if len(latency) == 0:  # primary crashed scenarios: use another node
            for node_id in self.ids:
                candidate = self.nodes[node_id].latency.since(since)
                if len(candidate) > 0:
                    latency = candidate
                    break
        net_utils = [self.network.window_utilization(i) for i in self.ids
                     if not self.network.is_crashed(i)]
        cpu_utils = [self.cpus[i].window_utilization() for i in self.ids
                     if not self.network.is_crashed(i)]
        mem_values = [v for i in self.ids for v in self.memory_series[i].values]
        expected = int(duration_s / self.config.cycle_time_s)
        view_changes = max(
            self.nodes[i].replica.stats.view_changes_completed for i in self.ids
        )
        phases: dict[str, dict[str, float]] = {}
        findings: list[dict] = []
        if self.tracer.enabled and hasattr(self.tracer, "iter_events"):
            report = pair_request_spans(
                self.tracer.iter_events(), node=primary, since=since
            )
            phases = {
                name: stats.snapshot() for name, stats in report.phase_stats.items()
            }
            phases["end_to_end"] = report.end_to_end.snapshot()
            findings = self.check_invariants().to_dicts()
        return ScenarioResult(
            system=self.config.system,
            cycle_time_s=self.config.cycle_time_s,
            payload_bytes=self.config.payload_bytes,
            duration_s=duration_s,
            mean_latency_s=latency.mean(),
            p99_latency_s=latency.p99(),
            max_latency_s=latency.maximum(),
            requests_logged=len(latency),
            requests_expected=expected,
            network_utilization=(sum(net_utils) / len(net_utils)) if net_utils else 0.0,
            cpu_utilization=max(cpu_utils) if cpu_utils else 0.0,
            memory_mean_bytes=(sum(mem_values) / len(mem_values)) if mem_values else 0.0,
            memory_peak_bytes=max(mem_values) if mem_values else 0.0,
            view_changes=view_changes,
            metrics=self.aggregate_metrics().counter_values(),
            phases=phases,
            findings=findings,
        )

    def faulty_node_ids(self) -> tuple[str, ...]:
        """Nodes the oracle's agreement invariants must not quantify over:
        configured Byzantine or crash specs, plus every node that was
        fail-stopped at any point (recovered nodes legitimately missed
        requests while down — StateSync backfills the chain, not the
        trace, so omission checks must still excuse them)."""
        faulty = set(self._ever_crashed)
        for node_id in self.ids:
            spec = self.config.byzantine.get(node_id, ByzantineSpec())
            if spec.is_faulty:
                faulty.add(node_id)
            if self.network.is_crashed(node_id):
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
