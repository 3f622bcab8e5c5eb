"""Shared bus reception inside a full cluster: same chain, a quarter of the work."""

import pytest

from repro.bus import ReceptionFaultConfig, RelevanceFilter
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
