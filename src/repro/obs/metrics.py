"""Counters with per-node registries and cluster aggregation.

A counter is an int field of a stats dataclass the protocol already
increments (:class:`~repro.bft.core.ReplicaStats`,
:class:`~repro.core.layer.LayerStats`,
:class:`~repro.core.statesync.SyncStats`,
:class:`~repro.export.replica_side.ExportStats`,
:class:`~repro.export.datacenter.DataCenterStats`,
:class:`~repro.runtime.base.EnvCounters`); nothing here runs on the hot
path.  When metrics are collected, :func:`fold_node` and
:func:`fold_env_counters` fold each stats object into a registry with one
``inc_from(asdict(stats), prefix)``, so a field's name is its metric name
and the simulator, TCP and multiprocess runtimes report the same keys.

The registry is deliberately boring: counters are plain integers, creation
is get-or-create by name, a counter never decreases, and snapshots render
names in sorted order so two identical runs serialize identically.
:class:`ClusterMetrics` holds one :class:`MetricsRegistry` per node and sums
them (plus, on request, every env's counters) into one cluster-level view.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

from repro.util.errors import ProtocolError

class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ProtocolError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class MetricsRegistry:
    """Get-or-create registry of named counters for one node (or the cluster)."""

    def __init__(self, node: str = "") -> None:
        self.node = node
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def inc_from(self, counters: Mapping[str, int], prefix: str = "") -> None:
        """Fold a name→int mapping (e.g. a stats dataclass's ``asdict``) into counters."""
        for name in sorted(counters):
            self.counter(prefix + name).inc(int(counters[name]))

    def counter_values(self) -> dict[str, int]:
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def snapshot(self) -> dict[str, object]:
        """Deterministic full dump: the node id and its sorted counters."""
        return {"node": self.node, "counters": self.counter_values()}

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Add ``other``'s counters into this registry."""
        self.inc_from(other.counter_values())


def fold_env_counters(registry: MetricsRegistry, envs: Mapping[str, Any]) -> None:
    """Fold every env's :class:`~repro.runtime.base.EnvCounters` into ``registry``.

    Every runtime counts into the same dataclass, so the simulator, TCP and
    multiprocess runs report the same ``env.*`` key set.
    """
    for node_id in sorted(envs):
        registry.inc_from(asdict(envs[node_id].counters), prefix="env.")


def fold_node(registry: MetricsRegistry, node: Any) -> None:
    """Fold one node's protocol stats into its registry.

    The one place stats objects become metric names, so a counter means the
    same on the simulator, over TCP and in a multiprocess worker's report.
    Read at collection time from what the protocol already maintains
    (:class:`LayerStats`, :class:`ReplicaStats`): nothing on the hot path,
    and untraced runs have metrics too.
    """
    registry.inc_from(asdict(node.replica.stats), prefix="bft.")
    layer = getattr(node, "layer", None)
    if layer is not None:
        registry.inc_from(asdict(layer.stats), prefix="layer.")
    registry.counter("chain.bytes").inc(node.chain.total_size_bytes())
    registry.counter("requests.logged").inc(node.requests_logged)
    sync = getattr(node, "statesync", None)
    if sync is not None:
        registry.inc_from(asdict(sync.stats), prefix="sync.")


class ClusterMetrics:
    """Per-node registries plus the cluster-level fold."""

    def __init__(self) -> None:
        self._nodes: dict[str, MetricsRegistry] = {}

    def node(self, node_id: str) -> MetricsRegistry:
        registry = self._nodes.get(node_id)
        if registry is None:
            registry = self._nodes[node_id] = MetricsRegistry(node=node_id)
        return registry

    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    def aggregate(self, envs: Mapping[str, Any] | None = None) -> MetricsRegistry:
        """One merged registry over all nodes, optionally folding env counters."""
        merged = MetricsRegistry(node="cluster")
        for node_id in sorted(self._nodes):
            merged.merge_from(self._nodes[node_id])
        if envs:
            fold_env_counters(merged, envs)
        return merged
