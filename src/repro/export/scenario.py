"""Export experiment scenario: replicas behind LTE, data centers in the cloud.

Assembles the Table II setup — four replicas with seeded chains connected
over an 8.5 Mbit/s LTE uplink to one or more data centers — and runs
export rounds, reporting per-phase latencies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.export.datacenter import DataCenter, DataCenterConfig, ExportRound
from repro.export.replica_side import ExportConfig, ExportHandler
from repro.export.seed import clone_chain, seed_chain_and_checkpoints
from repro.obs.metrics import ClusterMetrics
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.env import SimEnv
from repro.sim.kernel import Kernel
from repro.sim.network import LinkSpec, Network
from repro.sim.resources import CostModel, CpuAccount
from repro.crypto.keys import default_scheme, derive_keys
from repro.util.rng import RngRegistry


@dataclass(frozen=True)
class ExportScenarioConfig:
    n_replicas: int = 4
    n_datacenters: int = 2
    n_blocks: int = 500
    requests_per_block: int = 10
    payload_bytes: int = 64
    delete_quorum: int = 2
    seed: int = 42
    lte: LinkSpec | None = None


class ExportScenario:
    """One assembled export deployment over a simulated LTE uplink."""

    def __init__(self, config: ExportScenarioConfig,
                 tracer: Tracer | None = None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.kernel = Kernel()
        self.rng = RngRegistry(config.seed)
        self.model = CostModel()
        scheme = default_scheme(fast=True)
        self.network = Network(
            self.kernel, self.rng.stream("lte"),
            config.lte or LinkSpec.lte_uplink(), name="lte",
        )

        self.replica_ids = [f"node-{i}" for i in range(config.n_replicas)]
        self.dc_ids = [f"dc-{i}" for i in range(config.n_datacenters)]
        self.bft_config = BftConfig(replica_ids=tuple(self.replica_ids))
        keypairs, self.keystore = derive_keys(scheme, self.replica_ids + self.dc_ids)

        chain, certs = seed_chain_and_checkpoints(
            self.bft_config, keypairs, config.n_blocks,
            requests_per_block=config.requests_per_block,
            payload_bytes=config.payload_bytes,
        )
        self._certs = certs

        self.handlers: dict[str, ExportHandler] = {}
        for replica_id in self.replica_ids:
            cpu = CpuAccount(self.kernel, self.model, name=replica_id)
            env = SimEnv(replica_id, self.kernel, self.network, cpu, self.model)
            replica_chain = clone_chain(chain)
            handler = ExportHandler(
                env=env,
                config=ExportConfig(delete_quorum=config.delete_quorum),
                keypair=keypairs[replica_id],
                keystore=self.keystore,
                chain=replica_chain,
                latest_checkpoint=self._latest_cert_getter(replica_chain),
                tracer=self.tracer,
            )
            self.handlers[replica_id] = handler
            self.network.register(replica_id, self._replica_inbox(handler))

        # Data centers run on cloud VMs: ingest is effectively free compared
        # to the LTE link, so their inbox dispatches directly.
        self.datacenters: dict[str, DataCenter] = {}
        for dc_id in self.dc_ids:
            cpu = CpuAccount(self.kernel, self.model, name=dc_id)
            env = SimEnv(dc_id, self.kernel, self.network, cpu, self.model)
            dc = DataCenter(
                env=env,
                config=DataCenterConfig(
                    dc_id=dc_id,
                    replica_ids=tuple(self.replica_ids),
                    peer_dc_ids=tuple(p for p in self.dc_ids if p != dc_id),
                ),
                bft_config=self.bft_config,
                keypair=keypairs[dc_id],
                keystore=self.keystore,
                rng=self.rng.stream(f"dc:{dc_id}"),
                tracer=self.tracer,
            )
            self.datacenters[dc_id] = dc
            self.network.register(dc_id, self._dc_inbox(dc))

        # Inter-datacenter traffic rides datacenter fiber, not the train's LTE.
        fiber = LinkSpec(latency_s=5e-3, jitter_s=1e-3, bandwidth_bps=1e9)
        for a in self.dc_ids:
            for b in self.dc_ids:
                if a != b:
                    self.network.set_link(a, b, fiber)

    def _latest_cert_getter(self, chain):
        def latest() -> CheckpointCertificate | None:
            height = chain.height
            while height > chain.base_height:
                cert = self._certs.get(height)
                if cert is not None:
                    return cert
                height -= 1
            return self._certs.get(chain.height)
        return latest

    def _replica_inbox(self, handler: ExportHandler):
        def deliver(src, message, size) -> None:
            handler.handle_message(src, message)
        return deliver

    def _dc_inbox(self, dc: DataCenter):
        def deliver(src, message, size) -> None:
            dc.handle_message(src, message)
        return deliver

    # -- fault control -------------------------------------------------------------

    def crash_replica(self, replica_id: str) -> None:
        """Fail-stop a replica's export endpoint (network-severed)."""
        self.network.crash(replica_id)

    def recover_replica(self, replica_id: str) -> None:
        """Bring a replica back and announce the resumed export session."""
        self.network.recover(replica_id)
        self.handlers[replica_id].resume_sessions(self.dc_ids)

    # -- measurement ---------------------------------------------------------------

    def collect_metrics(self) -> ClusterMetrics:
        """Per-endpoint export counters (replica ExportStats + DC rounds)."""
        cluster = ClusterMetrics()
        for replica_id in self.replica_ids:
            registry = cluster.node(replica_id)
            registry.inc_from(asdict(self.handlers[replica_id].stats),
                              prefix="export.")
        for dc_id in self.dc_ids:
            dc = self.datacenters[dc_id]
            registry = cluster.node(dc_id)
            registry.counter("export.rounds_completed").inc(len(dc.rounds))
            registry.inc_from(asdict(dc.stats), prefix="export.")
        return cluster

    # -- driving -------------------------------------------------------------------

    def run_export(self, dc_id: str = "dc-0", timeout_s: float = 3600.0) -> ExportRound:
        dc = self.datacenters[dc_id]
        round_ = dc.start_export()
        deadline = self.kernel.now + timeout_s
        while not round_.complete and self.kernel.now < deadline:
            if not self.kernel.step():
                break
        return round_
