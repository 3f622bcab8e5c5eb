"""Shared bus reception inside a full cluster: same chain, a quarter of the work."""

import pytest

from repro.bus import ReceptionFaultConfig, RelevanceFilter
from repro.chaos import ChaosInjector, CrashRecover, FaultSchedule, LossWindow
from repro.scenarios import ScenarioConfig, SimulatedCluster

# Head hash and kernel.events_fired of this exact run at the commit before
# reception was shared (four independent computations per cycle).
PINNED = {
    1.0: ("c678967b592fe33b31f1ada87d9c6ab2bd1c96533ae1f6d9b3d701fac6a8b04c", 10462),
    20.0: ("2c2fc595427ccea9c7a7614e425a7ee4d53c35a24fe17720e29172e142e9251d", 12202),
}


@pytest.mark.parametrize("scale", sorted(PINNED))
def test_noisy_reception_with_a_recovery_ends_where_it_always_did(scale, monkeypatch):
    computed = []
    real_apply = RelevanceFilter.apply
    monkeypatch.setattr(
        RelevanceFilter, "apply",
        lambda self, frames: computed.append(1) or real_apply(self, frames),
    )
    noisy = ReceptionFaultConfig.noisy(scale=scale)
    cluster = SimulatedCluster(ScenarioConfig(
        seed=1807, payload_bytes=256,
        bus_faults={f"node-{i}": noisy for i in range(4)},
    ))
    cluster.run(4.0)
    cluster.crash_node("node-2")
    cluster.run(2.0)
    cluster.recover_node("node-2")
    cluster.run(6.0)
    cluster.master.stop()
    cluster.kernel.run_until(cluster.kernel.now + 2.0)

    heads = {cluster.nodes[node_id].chain.head.block_hash.hex() for node_id in cluster.ids}
    assert (heads, cluster.kernel.events_fired) == ({PINNED[scale][0]}, PINNED[scale][1])

    receptions = sum(cluster.nodes[node_id].receiver.cycles_seen for node_id in cluster.ids)
    faults = [cluster.master.device_faults(node_id) for node_id in cluster.ids]
    assert sum(fault.cycles_dropped for fault in faults) > 0
    if scale > 1.0:
        corrupted = sum(fault.frames_corrupted for fault in faults)
        seen_invalid = sum(cluster.nodes[node_id].receiver.invalid_frames_seen
                           for node_id in cluster.ids)
        assert 0 < seen_invalid <= corrupted    # a crash forgets the old receiver's count
        assert sum(fault.cycles_delayed for fault in faults) > 0
    # Every emitted cycle is computed at least once; divergent receivers add
    # their own, but nowhere near one per reception.
    assert cluster.master.cycles_emitted <= len(computed) < receptions / 2


# Head hash and kernel.events_fired at the commit before the delivery path
# (signing memo, kind dispatch, Network.send, CpuAccount.submit) was reworked.
# The faulted schedule goes through what a steady run never touches: a node
# rebuilt from its store, a view change under total loss, gap fill and
# StateSync; the linear rows put the second backend's dispatch under the pin.
FAULTS = FaultSchedule((
    CrashRecover(start_s=2.0, duration_s=2.5, node="node-1"),
    LossWindow(start_s=6.0, duration_s=1.0, loss_prob=1.0),
))
PINNED_DELIVERY = {
    ("pbft", "faulted"): ("2a18182874d5acba5e078a80b38e501005ae0c972da549977966343ff762d0ae", 8613),
    ("pbft", "steady"): ("283fd066ed038cdbfb41431f6e5c9beb3a49110503ef36a992f52e610f896e75", 5554),
    # 66 events above the original pin (4070), all from one rule of the shared
    # view change: proofs cover executed-but-not-yet-stable instances, so the
    # new primary re-proposes those too.  The head is the original one.
    ("linear", "faulted"): ("2a18182874d5acba5e078a80b38e501005ae0c972da549977966343ff762d0ae", 4136),
    ("linear", "steady"): ("283fd066ed038cdbfb41431f6e5c9beb3a49110503ef36a992f52e610f896e75", 2485),
}


@pytest.mark.parametrize("backend, schedule", sorted(PINNED_DELIVERY))
def test_faulted_and_linear_runs_end_where_they_always_did(backend, schedule):
    cluster = SimulatedCluster(ScenarioConfig(
        seed=1807, payload_bytes=256, bft_backend=backend,
    ))
    if schedule == "faulted":
        ChaosInjector(cluster, FAULTS).install()
        cluster.run(10.0)
    else:
        cluster.run(6.0)
    cluster.master.stop()
    cluster.kernel.run_until(cluster.kernel.now + 2.0)

    heads = {cluster.nodes[node_id].chain.head.block_hash.hex() for node_id in cluster.ids}
    assert (heads, cluster.kernel.events_fired) == (
        {PINNED_DELIVERY[backend, schedule][0]}, PINNED_DELIVERY[backend, schedule][1])
    if schedule == "faulted":
        assert cluster.recovery_counts["node-1"] == 1
        assert max(cluster.nodes[node_id].replica.stats.view_changes_completed
                   for node_id in cluster.ids) >= 1
