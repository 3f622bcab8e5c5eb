"""Satellite guard: everything a worker returns must survive pickling.

Process-sharded sweeps only work if the envelope and every structure
inside it cross the process boundary intact.  These tests pin that field
by field — a new unpicklable attribute on :class:`ScenarioResult`,
:class:`ClusterMetrics`, or the phase breakdowns fails here in-process
instead of as an opaque ``ProcessPoolExecutor`` traceback.
"""

import dataclasses
import pickle

import pytest

from repro.obs.metrics import ClusterMetrics, MetricsRegistry
from repro.obs.spans import PhaseStats
from repro.scenarios import ScenarioResult
from repro.sweep import PointEnvelope, SweepPoint, run_point


@pytest.fixture(scope="module")
def traced_envelope() -> PointEnvelope:
    point = SweepPoint(system="zugchain", cycle_time_s=0.032,
                       payload_bytes=64, duration_s=3.0, warmup_s=0.5,
                       trace=True)
    return run_point(5, point, keep_trace=True)


def test_scenario_result_roundtrips_field_by_field(traced_envelope):
    result = traced_envelope.result
    clone = pickle.loads(pickle.dumps(result))
    for field in dataclasses.fields(ScenarioResult):
        assert getattr(clone, field.name) == getattr(result, field.name), field.name
    assert clone == result


def test_result_carries_metrics_and_phases_through_pickle(traced_envelope):
    clone = pickle.loads(pickle.dumps(traced_envelope.result))
    # The aggregated cluster counters made the trip as plain ints...
    assert clone.metrics and all(
        isinstance(v, int) for v in clone.metrics.values())
    # ...and the traced run produced a per-phase latency breakdown whose
    # snapshot keys match PhaseStats exactly.
    assert clone.phases
    for name, stats in clone.phases.items():
        assert set(stats) == {"count", "total", "mean", "min", "max"}, name


def test_envelope_roundtrips_every_field(traced_envelope):
    clone = pickle.loads(pickle.dumps(traced_envelope))
    for field in dataclasses.fields(PointEnvelope):
        assert getattr(clone, field.name) == getattr(traced_envelope, field.name), field.name
    assert clone.head_hash == traced_envelope.head_hash
    assert clone.chain_height >= 1
    assert clone.trace_events  # keep_trace=True: events crossed the boundary
    assert clone.to_dict() == traced_envelope.to_dict()


def test_phase_stats_roundtrips():
    stats = PhaseStats(name="propose->commit")
    for value in (0.010, 0.003, 0.027):
        stats.observe(value)
    clone = pickle.loads(pickle.dumps(stats))
    for field in dataclasses.fields(PhaseStats):
        assert getattr(clone, field.name) == getattr(stats, field.name), field.name
    assert clone.snapshot() == stats.snapshot()


def test_cluster_metrics_roundtrips_with_counters():
    metrics = ClusterMetrics()
    for node in ("node-0", "node-1"):
        registry = metrics.node(node)
        registry.counter("layer.requests").inc(3)
        registry.counter("requests.logged").inc(7)
    clone = pickle.loads(pickle.dumps(metrics))
    assert clone.node_ids() == metrics.node_ids()
    assert (clone.aggregate().snapshot() == metrics.aggregate().snapshot())


def test_metrics_registry_snapshot_survives_pickle():
    registry = MetricsRegistry(node="cluster")
    registry.inc_from({"b": 2, "a": 1})
    clone = pickle.loads(pickle.dumps(registry))
    assert clone.snapshot() == registry.snapshot()
    # Insertion order must not leak into the rendering either way.
    assert list(clone.counter_values()) == ["a", "b"]
