"""State synchronization: a recovered node catches up (§III-D scenario ii, live)."""

import pytest

from repro.scenarios import ScenarioConfig, SimulatedCluster


def crash_and_recover(recover_at=20.0, crash_at=6.0, duration=45.0, retention=0.0):
    cluster = SimulatedCluster(ScenarioConfig(
        system="zugchain",
        retention_s=retention,
    ))
    cluster.kernel.schedule(crash_at, lambda: cluster.crash_node("node-3"))
    cluster.kernel.schedule(recover_at, lambda: cluster.recover_node("node-3"))
    result = cluster.run(duration_s=duration, warmup_s=0.0)
    return cluster, result


def test_recovered_node_catches_up_via_state_sync():
    cluster, result = crash_and_recover()
    lagging = cluster.nodes["node-3"]
    healthy = cluster.nodes["node-0"]
    assert lagging.statesync.stats.completed >= 1
    # The recovered chain reaches (close to) the healthy chain's height and
    # verifies end to end.
    assert lagging.chain.height >= healthy.chain.height - 2
    lagging.chain.verify()
    # Hash agreement at a common height.
    common = min(lagging.chain.height, healthy.chain.height)
    assert lagging.chain.block_at(common).block_hash == healthy.chain.block_at(common).block_hash


def test_recovered_node_resumes_participation():
    cluster, result = crash_and_recover()
    lagging = cluster.nodes["node-3"].replica
    # After syncing, the replica's watermark moved to the checkpoint and it
    # decides new requests again.
    assert lagging.last_stable_seq > 0
    assert lagging.stats.decided > 0


def test_state_sync_across_pruned_chain():
    # The healthy nodes pruned (export); the recovering node receives the
    # pruned chain plus the delete certificate justifying its base.
    cluster, result = crash_and_recover(retention=10.0)
    lagging = cluster.nodes["node-3"]
    assert lagging.statesync.stats.completed >= 1
    assert lagging.chain.base_height > 0
    assert lagging.chain.prune_certificate is not None
    lagging.chain.verify()


def test_no_spurious_sync_without_lag():
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain"))
    cluster.run(duration_s=15.0, warmup_s=0.0)
    for node_id in cluster.ids:
        assert cluster.nodes[node_id].statesync.stats.completed == 0


def test_single_liar_cannot_trigger_sync():
    from repro.bft.messages import Checkpoint
    from repro.crypto import HmacScheme

    cluster = SimulatedCluster(ScenarioConfig(system="zugchain"))
    cluster.run(duration_s=5.0, warmup_s=0.0)
    node = cluster.nodes["node-1"]
    # One Byzantine peer claims an absurdly advanced checkpoint.
    pair = HmacScheme().derive_keypair(b"node-3")
    lie = Checkpoint(seq=10_000, block_height=1_000, block_hash=b"\x66" * 32,
                     state_digest=b"\x66" * 32, replica_id="node-3").signed(pair)
    node.statesync.observe_checkpoint("node-3", lie)
    node.statesync.observe_checkpoint("node-3", lie)  # same liar twice
    assert node.statesync._sync_in_flight is False  # needs f+1 distinct vouchers


def test_synced_and_pruned_chain_survives_a_second_crash():
    # node-3 syncs over a pruned chain, then loses power again: it must come
    # back at the head it had, from a store that equals every node's chain.
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain", retention_s=10.0))
    seen = {}

    def span():
        chain = cluster.nodes["node-3"].chain
        return chain.base_height, chain.height

    def second_crash():
        seen["head"] = span()
        cluster.crash_node("node-3")

    def second_recover():
        cluster.recover_node("node-3")
        seen["restored"] = span()

    cluster.kernel.schedule(6.0, lambda: cluster.crash_node("node-3"))
    cluster.kernel.schedule(20.0, lambda: cluster.recover_node("node-3"))
    cluster.kernel.schedule(30.0, second_crash)
    cluster.kernel.schedule(31.0, second_recover)
    cluster.run(duration_s=40.0, warmup_s=0.0)
    base, head = seen["head"]
    assert 0 < base < head
    assert seen["restored"] == seen["head"]
    for node_id in cluster.ids:
        chain = cluster.nodes[node_id].chain
        assert chain.base_height > 0
        assert cluster.stores[node_id].heights() == list(
            range(chain.base_height, chain.height + 1))
