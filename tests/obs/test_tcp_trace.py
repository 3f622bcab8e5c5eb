"""Tracing the asyncio/TCP runtime: ordering guarantees of a real run.

TCP timestamps are debug-grade (per-node relative clocks, wall-clock
paced), so nothing here asserts byte-identical output.  What a trace
must still guarantee: the cluster-wide sequence is strictly increasing,
each node's clock never runs backwards, and causality holds — a
request's ``bus.rx`` is recorded before its ``req.logged`` on the same
node.
"""

import io

import hypothesis  # noqa: F401  (pre-import: see tests/runtime/test_asyncio_runtime.py)
import pytest

from repro.obs import RecordingTracer, write_trace
from repro.obs.cli import main as obs_main
from repro.scenarios import ScenarioConfig, run_scenario

CYCLES = 5
CYCLE_TIME_S = 0.02


@pytest.fixture(scope="module")
def traced_run():
    tracer = RecordingTracer()
    config = ScenarioConfig(n=4, cycle_time_s=CYCLE_TIME_S, payload_bytes=64, block_size=5,
                            soft_timeout_s=0.4, hard_timeout_s=0.4)
    result = run_scenario(config, "tcp", CYCLES * CYCLE_TIME_S, tracer=tracer)
    return result, list(tracer.iter_events())


def test_run_completes_and_chains_agree(traced_run):
    result, _events = traced_run
    assert result.completed
    assert result.requests_logged == CYCLES
    assert result.heads_consistent
    assert set(result.chain_heights.values()) == {CYCLES // 5}


def test_cluster_sequence_is_strictly_increasing(traced_run):
    _result, events = traced_run
    assert events
    seqs = [event.seq for event in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_per_node_timestamps_are_monotonic(traced_run):
    _result, events = traced_run
    last: dict[str, float] = {}
    for event in events:
        assert event.t >= last.get(event.node, 0.0)
        last[event.node] = event.t


def test_bus_rx_precedes_req_logged_per_request(traced_run):
    """Causality per (node, digest): seen on the bus before durably logged."""
    _result, events = traced_run
    rx_seq: dict[tuple, int] = {}
    logged = 0
    for event in events:
        key = (event.node, event.get("digest"))
        if event.name == "bus.rx":
            rx_seq.setdefault(key, event.seq)
        elif event.name == "req.logged":
            assert key in rx_seq, f"req.logged without bus.rx: {key}"
            assert event.seq > rx_seq[key]
            logged += 1
    assert logged >= 4 * CYCLES  # every node logged every request


def test_trace_round_trips_through_obs_summary(tmp_path, traced_run):
    _result, events = traced_run
    path = str(tmp_path / "tcp-trace.jsonl")
    write_trace(iter(events), path)
    out = io.StringIO()
    assert obs_main(["summary", path], out=out) == 0
    assert "end_to_end" in out.getvalue()
