"""MultiprocessCluster: real consensus with one OS process per node.

The conformance battery pins MultiprocessEnv's adapter semantics; these
tests pin the cluster built on it — N worker processes, wire-encoded
messages over mp queues, a bus feeder in the parent — actually ordering
requests and staying consistent, i.e. the sans-IO promise ("only the Env
implementation changes") holding across a process boundary.
"""

import pytest

from repro.faults.behaviors import ByzantineSpec
from repro.runtime import live
from repro.runtime.wallclock import wall_timer
from repro.scenarios import NodeRecipe, ScenarioConfig, run_scenario

CYCLES = 8


@pytest.fixture(scope="module")
def small_run():
    config = ScenarioConfig(
        n=4, cycle_time_s=0.03, payload_bytes=64, block_size=5,
        soft_timeout_s=0.5, hard_timeout_s=0.5,
    )
    return config, run_scenario(config, "mp", CYCLES * config.cycle_time_s)


def test_every_node_logs_every_request(small_run):
    _, result = small_run
    assert result.errors == {}
    assert result.completed
    assert result.requests_expected == CYCLES
    assert result.requests_logged >= CYCLES


def test_chains_are_consistent_across_processes(small_run):
    _, result = small_run
    assert result.heads_consistent
    heights = set(result.chain_heights.values())
    assert len(heights) == 1 and heights.pop() >= 1


def test_env_counters_travel_back_from_workers(small_run):
    config, result = small_run
    assert sorted(result.chain_heights) == [f"node-{i}" for i in range(config.n)]
    counters = result.metrics
    # Every node broadcast protocol messages to its three peers.
    assert counters["env.broadcasts"] >= config.n
    assert counters["env.messages_emitted"] >= counters["env.broadcasts"] * (config.n - 1)
    assert counters["env.drops"] == 0
    assert counters["env.decode_errors"] == 0


def test_every_worker_raising_is_reported_without_waiting_for_the_ceiling(monkeypatch):
    """A dead worker can send no final: its error is kept, and nobody waits for it.

    The workers are forked, so they inherit the patched recipe.
    """
    def broken(self, node_id, env, tracer=None, **_):
        raise RuntimeError(f"no stack on {node_id}")

    monkeypatch.setattr(NodeRecipe, "build_node", broken)
    clock = wall_timer()
    started = clock()
    result = run_scenario(ScenarioConfig(cycle_time_s=0.02), "mp", 0.06)
    elapsed = clock() - started
    assert sorted(result.errors) == [f"node-{i}" for i in range(4)]
    assert all("no stack on" in error for error in result.errors.values())
    assert not result.completed
    assert result.requests_logged == 0 and result.chain_heights == {}
    assert elapsed < live.SETTLE_CEILING_S / 3


def test_a_byzantine_spec_reaches_the_worker_that_hosts_it():
    """The recipe, not the runtime, reads ``byzantine``: fabrication happens in-process."""
    config = ScenarioConfig(
        cycle_time_s=0.03, payload_bytes=64, block_size=5,
        byzantine={"node-1": ByzantineSpec(fabricate_per_cycle=1.0)},
    )
    result = run_scenario(config, "mp", CYCLES * config.cycle_time_s)
    assert result.completed and result.heads_consistent
    # Every cycle, node-1 broadcast one request that was never on the bus.
    assert result.requests_logged > CYCLES
