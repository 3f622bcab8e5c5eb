"""Causal DAG construction, shard merging, and cross-runtime conformance.

Three layers of guarantee, pinned here:

* **Unit**: ``build_dag`` reconstructs program and message edges and
  reports (never raises on) structural anomalies — orphan causes,
  duplicate identities, duplicate deliveries, Lamport regressions.
* **Determinism**: identical-seed simulator runs build byte-identical
  causal DAGs, and ``merge_shards`` is a pure function of shard contents
  (any permutation of the shards yields byte-identical JSONL).
* **Conformance**: one shared battery (clean DAG, strictly increasing
  per-node Lamport clocks, complete request lifecycles) runs unmodified
  over traces from the simulator, the TCP runtime, and the merged
  multiprocess shards.  Timestamps differ across runtimes (documented
  domains); DAG health and lifecycle shape must not.
"""

import random

import pytest

from repro.obs import (
    LIFECYCLE,
    RecordingTracer,
    build_dag,
    check_trace,
    event_id,
    lifecycle_chains,
    lifecycle_shape,
    merge_shards,
)
from repro.obs.sinks import encode_event
from repro.obs.trace import TraceEvent
from repro.scenarios import ScenarioConfig, SimulatedCluster, run_scenario

SEED = 1234


def _jsonl(events):
    """The canonical byte rendering of a trace, for identity assertions."""
    return "".join(encode_event(event) + "\n" for event in events).encode("ascii")


def _event(seq, node, name, *, t=0.0, idx=-1, lamport=0, cause="", **fields):
    return TraceEvent(seq=seq, t=t, node=node, name=name,
                      fields=tuple(sorted(fields.items())),
                      idx=idx, lamport=lamport, cause=cause)


# ---------------------------------------------------------------------------
# build_dag unit behaviour
# ---------------------------------------------------------------------------


def test_dag_builds_program_and_message_edges():
    events = [
        _event(0, "node-0", "bus.rx", t=0.0, idx=0, lamport=1),
        _event(1, "node-0", "bft.preprepare", t=0.1, idx=1, lamport=3),
        _event(2, "node-1", "bft.preprepare", t=0.2, idx=0, lamport=5,
               cause="node-0#1"),
    ]
    dag = build_dag(events)
    assert dag.anomaly_count == 0
    kinds = [(edge.parent, edge.child, edge.kind) for edge in dag.edges]
    assert (0, 1, "program") in kinds
    assert (1, 2, "message") in kinds
    assert dag.roots() == [0]
    hops = dag.hop_latencies()
    assert hops[("node-0", "node-1")].count == 1
    assert hops[("node-0", "node-1")].mean == pytest.approx(0.1)


def test_dag_reports_orphan_causes():
    events = [
        _event(0, "node-1", "bft.commit", idx=0, lamport=4, cause="node-9#7"),
    ]
    dag = build_dag(events)
    assert dag.orphans == [(0, "node-9#7")]
    assert dag.message_edges == []
    assert dag.anomaly_count == 1


def test_dag_reports_duplicate_identities():
    events = [
        _event(0, "node-0", "bus.rx", idx=0, lamport=1),
        _event(1, "node-0", "bus.rx", idx=0, lamport=2),  # same node#idx
    ]
    dag = build_dag(events)
    assert dag.duplicate_ids == ["node-0#0"]


def test_dag_reports_duplicate_deliveries():
    events = [
        _event(0, "node-0", "bus.rx", idx=0, lamport=1),
        _event(1, "node-1", "bft.commit", idx=0, lamport=3, cause="node-0#0"),
        _event(2, "node-1", "bft.commit", idx=1, lamport=4, cause="node-0#0"),
    ]
    dag = build_dag(events)
    assert dag.duplicate_edges == [("node-0#0", "node-1", "bft.commit")]


def test_dag_reports_lamport_regressions():
    events = [
        _event(0, "node-0", "bus.rx", idx=0, lamport=9),
        _event(1, "node-1", "bft.commit", idx=0, lamport=9,  # not > parent
               cause="node-0#0"),
    ]
    dag = build_dag(events)
    assert len(dag.clock_regressions) == 1
    assert dag.clock_regressions[0].kind == "message"


def test_event_id_blank_for_unbound_events():
    assert event_id(_event(0, "node-0", "bus.rx")) == ""
    assert event_id(_event(0, "node-0", "bus.rx", idx=3)) == "node-0#3"


# ---------------------------------------------------------------------------
# Shard merging
# ---------------------------------------------------------------------------


def _synthetic_shards():
    shards = {}
    for n, node in enumerate(("node-0", "node-1", "node-2")):
        shards[node] = [
            _event(i, node, "bus.rx", t=0.01 * i, idx=i, lamport=1 + 3 * i + n,
                   digest=f"d{i}")
            for i in range(4)
        ]
    return shards


def test_merge_shards_is_permutation_invariant_bytewise():
    shards = _synthetic_shards()
    orders = [list(shards), list(reversed(list(shards)))]
    random.Random(SEED).shuffle(orders[1])
    merges = []
    for order in orders:
        merged = merge_shards({node: list(shards[node]) for node in order})
        merges.append(_jsonl(merged))
    assert merges[0] == merges[1]
    # Passing the shards as a bare iterable (worker completion order)
    # changes nothing either.
    as_list = merge_shards([shards[node] for node in reversed(list(shards))])
    assert _jsonl(as_list) == merges[0]


def test_merge_shards_renumbers_seq_but_preserves_identity():
    merged = merge_shards(_synthetic_shards())
    assert [event.seq for event in merged] == list(range(len(merged)))
    # Per-node idx — what causal references use — is untouched, so the
    # merged stream still resolves every identity without rewrites.
    assert {event_id(event) for event in merged} == {
        f"{node}#{i}" for node in ("node-0", "node-1", "node-2")
        for i in range(4)
    }
    # Per-node relative order survives the merge (Lamport ticks per event).
    for node in ("node-0", "node-1", "node-2"):
        idxs = [event.idx for event in merged if event.node == node]
        assert idxs == sorted(idxs)


# ---------------------------------------------------------------------------
# Determinism over the real simulator
# ---------------------------------------------------------------------------


def _sim_trace(seed=SEED, duration_s=3.0, **overrides):
    tracer = RecordingTracer()
    cluster = SimulatedCluster(
        ScenarioConfig(system="zugchain", seed=seed, **overrides), tracer=tracer
    )
    result = cluster.run(duration_s=duration_s)
    return cluster, result, tracer.events


def test_identical_seed_sim_runs_build_byte_identical_dags():
    _, _, first = _sim_trace()
    _, _, second = _sim_trace()
    first_dag, second_dag = build_dag(first), build_dag(second)
    assert first_dag.fingerprint() == second_dag.fingerprint()
    assert _jsonl(first) == _jsonl(second)
    # Different seed, different DAG: the fingerprint is not degenerate.
    _, _, other = _sim_trace(seed=SEED + 1)
    assert build_dag(other).fingerprint() != first_dag.fingerprint()


def test_sim_trace_shards_merge_back_byte_identically():
    _, _, events = _sim_trace()
    shards = {}
    for event in events:
        shards.setdefault(event.node, []).append(event)
    merged_a = merge_shards(shards)
    shuffled = list(shards)
    random.Random(SEED).shuffle(shuffled)
    merged_b = merge_shards({node: shards[node] for node in shuffled})
    assert _jsonl(merged_a) == _jsonl(merged_b)
    # The canonical merge is a healthy DAG too: every causal reference
    # still resolves after the reorder-and-renumber.
    dag = build_dag(merged_a)
    assert dag.anomaly_count == 0
    assert lifecycle_chains(merged_a) == lifecycle_chains(events)


def test_scenario_result_surfaces_empty_findings_on_clean_runs():
    _, result, _ = _sim_trace()
    assert result.findings == []


# ---------------------------------------------------------------------------
# The cross-runtime conformance battery
# ---------------------------------------------------------------------------


CONSENSUS_ORDER = ("bft.preprepare", "bft.commit", "req.logged")


def assert_causal_conformance(events, runtime):
    """The battery every runtime's trace must pass unmodified.

    Clean DAG, strictly increasing per-node Lamport clocks, a passing
    oracle, and — in every complete lifecycle chain — the consensus marks
    in protocol order.  ``bus.rx`` is a *local* observation and may float
    within a chain on runtimes that race the bus feed against consensus
    traffic (the multiprocess queue); in-order runtimes pin its position
    in their own tests.
    """
    assert events, f"{runtime}: empty trace"
    dag = build_dag(events)
    assert dag.anomaly_count == 0, (
        f"{runtime}: orphans={dag.orphans} dups={dag.duplicate_ids} "
        f"dup_edges={dag.duplicate_edges} regressions={dag.clock_regressions}"
    )
    assert dag.message_edges, f"{runtime}: no cross-node causality observed"
    last_lamport = {}
    for event in sorted(events, key=lambda e: e.seq):
        if event.idx < 0:
            continue
        assert event.lamport > last_lamport.get(event.node, 0), (
            f"{runtime}: Lamport clock on {event.node} did not advance"
        )
        last_lamport[event.node] = event.lamport
    report = check_trace(events)
    assert report.ok, f"{runtime}: oracle findings {report.by_code()}"
    shape = lifecycle_shape(events)
    assert shape["complete"] > 0, f"{runtime}: no complete lifecycle chains"
    for chain in shape["chain_shapes"]:
        marks = chain.split(",")
        assert set(marks) == set(LIFECYCLE), f"{runtime}: bad chain {chain}"
        consensus = [mark for mark in marks if mark != "bus.rx"]
        assert consensus == list(CONSENSUS_ORDER), (
            f"{runtime}: consensus marks out of protocol order in {chain}"
        )
    return shape


def test_causal_conformance_sim():
    shape = assert_causal_conformance(_sim_trace()[2], "sim")
    assert shape["nodes"] == 4
    # The simulator is fully in-order: bus.rx always leads the chain.
    assert shape["chain_shapes"] == [",".join(LIFECYCLE)]


LIVE_CONFIG = ScenarioConfig(cycle_time_s=0.02, payload_bytes=64, block_size=5,
                             soft_timeout_s=0.4, hard_timeout_s=0.4)


def test_causal_conformance_tcp():
    tracer = RecordingTracer()
    result = run_scenario(LIVE_CONFIG, "tcp", 5 * LIVE_CONFIG.cycle_time_s, tracer=tracer)
    assert result.completed and result.heads_consistent
    shape = assert_causal_conformance(tracer.events, "tcp")
    assert shape["nodes"] == 4
    # TCP delivers the bus cycle synchronously on the event loop before
    # any consensus traffic for it can arrive: bus.rx leads here too.
    assert shape["chain_shapes"] == [",".join(LIFECYCLE)]


def test_causal_conformance_multiprocess():
    tracer = RecordingTracer()
    result = run_scenario(LIVE_CONFIG, "mp", 5 * LIVE_CONFIG.cycle_time_s, tracer=tracer)
    assert result.completed and result.heads_consistent
    assert not result.errors
    # The mp queue can race the bus feed against consensus traffic, so the
    # battery checks consensus-order invariance, not bus.rx's position.
    shape = assert_causal_conformance(tracer.events, "mp")
    assert shape["nodes"] == 4
    # Every worker shard contributed causal identities to the merge.
    nodes_with_identity = {
        event.node for event in tracer.events if event.idx >= 0
    }
    assert len(nodes_with_identity) == 4
