"""Metrics registry tests: counters, cluster sums, env-counter folds."""

from dataclasses import fields

import pytest

from repro.obs import ClusterMetrics, MetricsRegistry
from repro.obs.metrics import fold_env_counters
from repro.runtime import EnvCounters
from repro.util.errors import ProtocolError


def test_counter_is_monotone():
    registry = MetricsRegistry(node="node-0")
    counter = registry.counter("bft.decided")
    counter.inc()
    counter.inc(4)
    assert registry.counter_values() == {"bft.decided": 5}
    with pytest.raises(ProtocolError):
        counter.inc(-1)


def test_inc_from_folds_stats_mapping():
    registry = MetricsRegistry()
    registry.inc_from({"decided": 3, "proposed": 5}, prefix="bft.")
    registry.inc_from({"decided": 2}, prefix="bft.")
    assert registry.counter_values() == {"bft.decided": 5, "bft.proposed": 5}


def test_cluster_aggregate_adds_counters():
    cluster = ClusterMetrics()
    for node_id in ("node-0", "node-1"):
        registry = cluster.node(node_id)
        registry.counter("requests.logged").inc(10)
    merged = cluster.aggregate()
    assert merged.node == "cluster"
    assert merged.counter_values()["requests.logged"] == 20
    assert cluster.node_ids() == ["node-0", "node-1"]


class _FakeEnv:
    def __init__(self, **counts):
        self.counters = EnvCounters(**counts)


def test_fold_env_counters_includes_transport_extras_when_present():
    registry = MetricsRegistry(node="cluster")
    envs = {
        "node-0": _FakeEnv(sends=10, drops=1, decode_errors=2),
        "node-1": _FakeEnv(sends=20, drops=0),  # SimEnv: never rejects a frame
    }
    fold_env_counters(registry, envs)
    values = registry.counter_values()
    assert values["env.sends"] == 30
    assert values["env.drops"] == 1
    assert values["env.decode_errors"] == 2
    assert values["env.oversize_frames"] == 0
    # Every EnvCounters field is a key, whichever runtime counted it.
    assert set(values) == {"env." + field.name for field in fields(EnvCounters)}


def test_snapshot_is_sorted_and_deterministic():
    registry = MetricsRegistry(node="n")
    registry.counter("z").inc()
    registry.counter("a").inc()
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "z"]
    assert snap == registry.snapshot()
