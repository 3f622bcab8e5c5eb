"""What a scenario *is*, whichever runtime hosts it.

One :class:`ScenarioConfig` describes a run, one :class:`NodeRecipe` turns it
into nodes and a bus signal source, one :class:`ScenarioResult` reports it.
The simulator (:mod:`repro.scenarios.cluster`), the TCP runtime and the
multiprocess runtime differ in the ``Env`` they hand the recipe and in how
they deliver a bus cycle — nothing a node reads from the config depends on
where it runs.  Everything here is deterministic: no clock, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.bft import BACKENDS
from repro.bft.config import BftConfig
from repro.bus.faults import ReceptionFaultConfig
from repro.bus.generator import GeneratorConfig, TrainDynamicsGenerator
from repro.bus.nsdb import standard_jru_catalog
from repro.chain.block import Block
from repro.core.baseline import BaselineNode
from repro.core.layer import ZugChainConfig
from repro.crypto.keys import default_scheme, derive_keys
from repro.faults.behaviors import ByzantineSpec, make_zugchain_node
from repro.obs.spans import RequestSpan, span_report
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.monitor import LatencyRecorder
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
    """Measurements of one run, in the units the paper reports.

    The same class on every runtime.  Network, CPU and memory figures come
    from the simulator's hardware model (100 Mbit/s links, the M-COM cost
    model, the accounted footprint); a live run has no such model — its host
    is whatever machine it ran on — so there they are ``None``.
    """

    system: str
    cycle_time_s: float
    payload_bytes: int
    duration_s: float
    mean_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    requests_logged: int
    requests_expected: int
    network_utilization: float | None   # fraction of the 100 Mbit/s egress (mean over nodes)
    cpu_utilization: float | None       # fraction of total 4-core CPU (max over nodes)
    memory_mean_bytes: float | None
    memory_peak_bytes: float | None
    view_changes: int
    # Aggregated cluster counters (layer/bft/env prefixes) and, when the run
    # was traced, the per-phase latency decomposition from span pairing.
    metrics: dict[str, int] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    # Invariant-oracle findings (repro.obs.check) over the trace, as plain
    # dicts so results stay picklable across sweep workers.  Empty for
    # untraced runs and for traced runs where every invariant holds.
    findings: list[dict] = field(default_factory=list)
    # Where each node's chain ended: height, and head block hash in hex
    # ("" for an empty chain).
    chain_heights: dict[str, int] = field(default_factory=dict)
    head_hashes: dict[str, str] = field(default_factory=dict)
    #: The run ended because it was done, not because a ceiling cut it short.
    #: The simulator always runs its window to the end; a live run is complete
    #: when every node logged every bus cycle and none reported an error.
    completed: bool = True
    #: Node id -> what it raised (a multiprocess worker that died).
    errors: dict[str, str] = field(default_factory=dict)

    @classmethod
    def measured(cls, config: ScenarioConfig, duration_s: float,
                 latency: LatencyRecorder, **facts) -> "ScenarioResult":
        """A result for ``config`` with its latency figures taken from ``latency``."""
        return cls(
            system=config.system,
            cycle_time_s=config.cycle_time_s,
            payload_bytes=config.payload_bytes,
            duration_s=duration_s,
            mean_latency_s=latency.mean(),
            p99_latency_s=latency.p99(),
            max_latency_s=latency.maximum(),
            **facts,
        )

    @property
    def heads_consistent(self) -> bool:
        """No two nodes hold different blocks at the same height.

        Agreement is about equal heights only: a node that ends a block
        behind is lagging (``completed`` says so), not diverged.
        """
        heads_at: dict[int, set[str]] = {}
        for node_id, height in self.chain_heights.items():
            if height > 0:
                heads_at.setdefault(height, set()).add(self.head_hashes[node_id])
        return all(len(heads) == 1 for heads in heads_at.values())

    def summary_row(self) -> str:
        row = (
            f"{self.system:9s} cycle={self.cycle_time_s * 1000:6.1f}ms "
            f"payload={self.payload_bytes:5d}B "
            f"lat={self.mean_latency_s * 1000:8.2f}ms"
        )
        if self.network_utilization is not None:
            row += f" net={self.network_utilization * 100:6.2f}%"
        if self.cpu_utilization is not None:
            row += f" cpu={self.cpu_utilization * 100:5.1f}%"
        if self.memory_mean_bytes is not None:
            row += f" mem={self.memory_mean_bytes / 1e6:6.2f}MB"
        return row


def head_hex(chain) -> str:
    """A chain's head block hash as :attr:`ScenarioResult.head_hashes` holds it."""
    return chain.head.block_hash.hex() if chain.height > 0 else ""


def reference_latency(primary: str,
                      latencies: Mapping[str, LatencyRecorder]) -> LatencyRecorder:
    """The primary's samples; the next node's that has any when it has none (it crashed)."""
    for node_id in (primary, *latencies):
        recorder = latencies.get(node_id)
        if recorder is not None and len(recorder) > 0:
            return recorder
    return LatencyRecorder()


def request_phases(spans: Iterable[RequestSpan], node: str,
                   since: float) -> dict[str, dict[str, float]]:
    """Per-phase latency decomposition of ``node``'s requests logged after ``since``.

    ``spans`` are the ones the oracle's walk closed (:attr:`OracleReport.spans`).
    """
    report = span_report(spans, node=node, since=since)
    phases = {name: stats.snapshot() for name, stats in report.phase_stats.items()}
    phases["end_to_end"] = report.end_to_end.snapshot()
    return phases


class NodeRecipe:
    """Builds the nodes of one deployment from its config, on any ``Env``.

    What the nodes share is derived here once: membership and protocol
    parameters, the keys (from the node ids alone, so separate processes
    arrive at the same ones), the NSDB — one object, because receivers of
    the same telegram set share its consolidated payload only under the same
    catalog — and the RNG registry, whose cached ``byzantine:<id>`` stream a
    rebuilt node continues rather than restarts.
    """

    def __init__(self, config: ScenarioConfig, rng: RngRegistry | None = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else RngRegistry(config.seed)
        self.ids = [f"node-{i}" for i in range(config.n)]
        self.bft_config = BftConfig(
            replica_ids=tuple(self.ids),
            checkpoint_interval=config.block_size,
            view_change_timeout_s=config.view_change_timeout_s,
            max_open_per_node=config.max_open_per_node,
        )
        self.zug_config = ZugChainConfig(
            soft_timeout_s=config.soft_timeout_s,
            hard_timeout_s=config.hard_timeout_s,
            checkpoint_interval=config.block_size,
            max_open_per_node=config.max_open_per_node,
            preprepare_cancels_soft=config.preprepare_cancels_soft,
            filtering_enabled=config.filtering_enabled,
        )
        self.scheme = default_scheme(fast=True)
        self.keypairs, self.keystore = derive_keys(self.scheme, self.ids)
        self.nsdb = standard_jru_catalog()

    def generator(self) -> TrainDynamicsGenerator:
        """The bus signal source: the same telegrams for a seed on every runtime."""
        return TrainDynamicsGenerator(
            self.nsdb,
            GeneratorConfig(target_payload_bytes=self.config.payload_bytes),
            self.rng,
        )

    def spec(self, node_id: str) -> ByzantineSpec:
        return self.config.byzantine.get(node_id, ByzantineSpec())

    def primary_of(self, views: list[int]) -> str:
        """The primary of the view most nodes are in."""
        return self.bft_config.primary_of_view(max(set(views), key=views.count))

    def build_node(
        self,
        node_id: str,
        env,
        tracer: Tracer | None = None,
        block_store=None,
        on_block: Callable[[Block], None] | None = None,
    ):
        """One node of the configured system, driven through ``env``.

        The only place a scenario constructs a node.  A traced run binds the
        env's causal clock here, so the node's events carry identity and
        cause edges wherever the env lives.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        env.bind_tracer(tracer)
        shared = dict(
            env=env,
            bft_config=self.bft_config,
            keypair=self.keypairs[node_id],
            keystore=self.keystore,
            nsdb=self.nsdb,
            on_block=on_block,
            tracer=tracer,
        )
        if self.config.system == "baseline":
            return BaselineNode(**shared)
        return make_zugchain_node(
            self.spec(node_id),
            self.rng.stream(f"byzantine:{node_id}"),
            zug_config=self.zug_config,
            replica_cls=BACKENDS[self.config.bft_backend],
            block_store=block_store,
            **shared,
        )
