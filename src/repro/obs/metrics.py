"""Counters, gauges, and fixed-bucket histograms with cluster aggregation.

The registry is deliberately boring: metric state is plain integers and
floats, creation is get-or-create by name, and snapshots render names in
sorted order so two identical runs serialize identically.  The histogram
uses *fixed* bucket bounds chosen at construction (no adaptive resizing),
which keeps merges exact and deterministic: merging per-node histograms
is element-wise addition, never re-binning.

:class:`ClusterMetrics` holds one :class:`MetricsRegistry` per node and
folds them — plus every runtime Env's :class:`~repro.runtime.base.EnvCounters`
and the asyncio runtime's ``decode_errors``/``oversize_frames`` — into one
cluster-level view, closing the long-standing "nothing aggregates env
counters" gap: fault-injection runs can now assert on
``aggregate(envs=...)`` counters such as ``env.drops`` and
``env.decode_errors``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

from repro.util.errors import ProtocolError

#: Default latency buckets (seconds): 1 ms .. 5 s, roughly logarithmic.
#: Chosen to resolve the paper's operating points — single-digit ms commit
#: latencies, 250/500 ms timeouts, and multi-second export rounds.
DEFAULT_LATENCY_BUCKETS_S = (
    0.001, 0.002, 0.005, 0.010, 0.020, 0.050,
    0.100, 0.250, 0.500, 1.0, 2.0, 5.0,
)


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


class Gauge:
    """Last-written value metric (e.g. queue depth, chain height)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` (cumulative
    style is left to renderers; storage is per-bin), and the final bin
    counts everything above the last bound.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ProtocolError(f"histogram {name} needs strictly increasing bounds")
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the q-quantile from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ProtocolError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts[:-1]):
            seen += bucket
            if seen >= rank:
                return self.bounds[index]
        return self.bounds[-1]  # overflow bin: report the last finite bound

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ProtocolError(
                f"cannot merge histogram {other.name} into {self.name}: "
                "bucket bounds differ"
            )
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.total += other.total

    def snapshot(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": list(zip(list(self.bounds) + ["+inf"], self.bucket_counts)),
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics for one node (or the cluster)."""

    def __init__(self, node: str = "") -> None:
        self.node = node
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- creation ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unused(name, self._gauges, self._histograms)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unused(name, self._counters, self._histograms)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unused(name, self._counters, self._gauges)
            metric = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS_S
            )
        return metric

    @staticmethod
    def _check_unused(name: str, *other_kinds: Mapping[str, Any]) -> None:
        for kind in other_kinds:
            if name in kind:
                raise ProtocolError(f"metric {name!r} already registered with another type")

    # -- bulk loading ----------------------------------------------------------

    def inc_from(self, counters: Mapping[str, int], prefix: str = "") -> None:
        """Fold a name→int mapping (e.g. a stats snapshot) into counters."""
        for name in sorted(counters):
            self.counter(prefix + name).inc(int(counters[name]))

    # -- reading ---------------------------------------------------------------

    def counter_values(self) -> dict[str, int]:
        return {name: self._counters[name].value for name in sorted(self._counters)}

    def gauge_values(self) -> dict[str, float]:
        return {name: self._gauges[name].value for name in sorted(self._gauges)}

    def snapshot(self) -> dict[str, object]:
        """Deterministic full dump: sorted names, plain scalars/lists."""
        return {
            "node": self.node,
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    # -- merging ------------------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms add; gauges take the maximum (the cluster
        view of "queue depth" or "chain height" is the worst node).
        """
        for name in sorted(other._counters):
            self.counter(name).inc(other._counters[name].value)
        for name in sorted(other._gauges):
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, other._gauges[name].value))
        for name in sorted(other._histograms):
            theirs = other._histograms[name]
            self.histogram(name, theirs.bounds).merge(theirs)


#: AsyncioEnv-only counters folded by ``fold_env_counters`` when present.
_EXTRA_ENV_COUNTERS = ("decode_errors", "oversize_frames")


def fold_env_counters(registry: MetricsRegistry, envs: Mapping[str, Any]) -> None:
    """Fold every env's :class:`EnvCounters` (and transport extras) into ``registry``.

    Works for any Env that exposes ``counters.snapshot()`` (all BaseEnv
    adapters do); the asyncio runtime's ``decode_errors``/``oversize_frames``
    are picked up when present so TCP fault-injection runs can assert on
    the aggregated ``env.decode_errors`` having moved.
    """
    for node_id in sorted(envs):
        env = envs[node_id]
        registry.inc_from(env.counters.snapshot(), prefix="env.")
        for extra in _EXTRA_ENV_COUNTERS:
            value = getattr(env, extra, None)
            if value is not None:
                registry.counter(f"env.{extra}").inc(int(value))


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
    registry.gauge("chain.height").set(node.chain.height)
    registry.counter("chain.bytes").inc(node.chain.total_size_bytes())
    registry.counter("requests.logged").inc(node.requests_logged)
    sync = getattr(node, "statesync", None)
    if sync is not None:
        registry.counter("sync.completed").inc(sync.syncs_completed)
        registry.counter("sync.rejected").inc(sync.syncs_rejected)
        registry.counter("sync.retried").inc(sync.syncs_retried)


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
