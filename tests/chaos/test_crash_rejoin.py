"""Crash → recover → StateSync rejoin: convergence and byte-identical blocks.

The satellite contract for crash recovery: a node that fail-stops, loses
its in-memory state, and rejoins via StateSync must end the run on the
same head as the nodes that never crashed — and every block it holds must
be byte-identical to the uncrashed copy, including blocks cut *after* the
rejoin (dedup/builder continuity across the transfer).
"""

from repro.chaos import CrashRecover, ChaosInjector, FaultSchedule, get_campaign, run_one
from repro.obs.trace import RecordingTracer
from repro.scenarios import ScenarioConfig, SimulatedCluster


def test_single_crash_rejoins_with_byte_identical_blocks():
    tracer = RecordingTracer()
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain"), tracer=tracer)
    schedule = FaultSchedule(faults=(
        CrashRecover(start_s=4.0, duration_s=4.0, node="node-2"),
    ))
    ChaosInjector(cluster, schedule).install()
    cluster.run(duration_s=20.0, warmup_s=0.0)
    cluster.master.stop()
    cluster.kernel.run_until(cluster.kernel.now + 3.0)

    recovered = cluster.nodes["node-2"]
    witness = cluster.nodes["node-0"]
    assert recovered.statesync.stats.completed >= 1
    assert recovered.chain.head.block_hash == witness.chain.head.block_hash
    # Byte identity across the WHOLE chain, including post-rejoin blocks.
    for height in range(recovered.chain.base_height, recovered.chain.height + 1):
        assert (recovered.chain.block_at(height).encode()
                == witness.chain.block_at(height).encode()), f"height {height}"
    # The running size total followed the store read-back and the transfer.
    assert recovered.chain.total_size_bytes() == witness.chain.total_size_bytes() == sum(
        witness.chain.block_at(height).encoded_size()
        for height in range(witness.chain.base_height, witness.chain.height + 1))
    # The recovery run is oracle-clean.
    report = cluster.check_invariants()
    assert not report.to_dicts()


def test_crash_recovery_storm_campaign_converges_clean():
    record = run_one(get_campaign("crash-recovery-storm"), seed=11, index=0)
    assert record.converged
    assert not record.findings
    assert record.passed
    assert len(set(record.head_hashes.values())) == 1
    # Both scheduled crashes actually happened and both nodes came back.
    assert record.faults_applied >= 2
    assert record.faults_cleared == record.faults_applied


def test_recovered_node_keeps_deciding_after_rejoin():
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain"))
    schedule = FaultSchedule(faults=(
        CrashRecover(start_s=3.0, duration_s=3.0, node="node-1"),
    ))
    ChaosInjector(cluster, schedule).install()
    cluster.run(duration_s=18.0, warmup_s=0.0)
    replica = cluster.nodes["node-1"].replica
    assert replica.stats.decided > 0
    assert replica.last_stable_seq > 0
