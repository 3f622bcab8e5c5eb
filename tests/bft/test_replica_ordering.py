"""Normal-case ordering tests.

Tests taking ``make_cluster`` are the backend-independent contract and run on
LinearBFT too (``conftest.py``); the rest is PBFT's own or needs no replica.
"""

import pytest

from repro.bft import BftConfig, Commit, Prepare, PrePrepare
from repro.util import ConfigError

from tests.bft.harness import BftCluster


def test_config_validations():
    # n=3 derives f=0, which is valid; duplicate ids are not:
    with pytest.raises(ConfigError):
        BftConfig(replica_ids=("a", "a", "b", "c"))
    with pytest.raises(ConfigError):
        BftConfig(replica_ids=("a", "b", "c", "d"), f=2)
    with pytest.raises(ConfigError):
        BftConfig(replica_ids=("a", "b", "c", "d"), checkpoint_interval=0)


def test_config_quorums():
    config = BftConfig(replica_ids=("a", "b", "c", "d"))
    assert config.f == 1
    assert config.quorum == 3
    assert config.prepared_quorum == 2
    assert config.primary_of_view(0) == "a"
    assert config.primary_of_view(5) == "b"


def test_single_request_decided_on_all_replicas(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    assert cluster.replicas["node-0"].propose(request)
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.decided[node_id] == [(1, request)]


def test_backup_cannot_propose(make_cluster):
    cluster = make_cluster()
    assert not cluster.replicas["node-1"].propose(cluster.signed_request(1))


def test_sequence_numbers_are_consecutive(make_cluster):
    cluster = make_cluster()
    for cycle in range(1, 6):
        cluster.replicas["node-0"].propose(cluster.signed_request(cycle))
    cluster.pump()
    for node_id in cluster.ids:
        assert [seq for seq, _ in cluster.decided[node_id]] == [1, 2, 3, 4, 5]
    assert cluster.all_decided_consistent()


def test_decisions_survive_one_crashed_backup(make_cluster):
    cluster = make_cluster()
    cluster.delivery_filter = lambda s, d, m: "node-3" not in (s, d)
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    cluster.pump()
    for node_id in ("node-0", "node-1", "node-2"):
        assert len(cluster.decided[node_id]) == 1
    assert cluster.decided["node-3"] == []


def test_no_decision_without_quorum(make_cluster):
    # Two of four replicas unreachable: 2f+1 = 3 commits cannot assemble.
    cluster = make_cluster()
    cluster.delivery_filter = lambda s, d, m: s in ("node-0", "node-1") and d in ("node-0", "node-1")
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.decided[node_id] == []


def test_bad_preprepare_signature_dropped(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    forged = PrePrepare(view=0, seq=1, request=request, primary_id="node-0",
                        signature=b"\x00" * 64)
    cluster.replicas["node-1"].on_message("node-0", forged)
    cluster.pump()
    assert cluster.decided["node-1"] == []
    assert cluster.replicas["node-1"].stats.invalid_signatures == 1


def test_preprepare_from_non_primary_dropped(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1, node_id="node-1")
    forged = PrePrepare(view=0, seq=1, request=request, primary_id="node-1")
    forged = forged.signed(cluster.keypairs["node-1"])
    cluster.replicas["node-2"].on_message("node-1", forged)
    cluster.pump()
    assert cluster.decided["node-2"] == []
    assert cluster.replicas["node-2"].stats.stale_messages >= 1


def test_wrong_view_messages_dropped(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    stale = PrePrepare(view=7, seq=1, request=request, primary_id="node-0")
    stale = stale.signed(cluster.keypairs["node-0"])
    cluster.replicas["node-1"].on_message("node-0", stale)
    assert cluster.decided["node-1"] == []


def test_out_of_watermark_seq_dropped(make_cluster):
    cluster = make_cluster(watermark_window=5)
    request = cluster.signed_request(1)
    beyond = PrePrepare(view=0, seq=99, request=request, primary_id="node-0")
    beyond = beyond.signed(cluster.keypairs["node-0"])
    cluster.replicas["node-1"].on_message("node-0", beyond)
    assert cluster.replicas["node-1"].stats.stale_messages == 1


def test_watermark_window_limits_primary(make_cluster):
    cluster = make_cluster(watermark_window=3)
    # Without checkpoints, only `window` proposals may be outstanding.
    results = [cluster.replicas["node-0"].propose(cluster.signed_request(c))
               for c in range(1, 6)]
    assert results == [True, True, True, False, False]


def test_execution_strictly_in_order(make_cluster):
    # Everything about seq 1 reaches node-3 only after seq 2 is fully ordered.
    cluster = make_cluster()
    held = []

    def hold_seq_1(src, dst, message):
        if dst == "node-3" and getattr(message, "seq", None) == 1:
            held.append((src, message))
            return False
        return True

    cluster.delivery_filter = hold_seq_1
    for cycle in (1, 2):
        cluster.replicas["node-0"].propose(cluster.signed_request(cycle))
    cluster.pump()
    assert [seq for seq, _ in cluster.decided["node-0"]] == [1, 2]
    assert cluster.decided["node-3"] == []          # seq 2 is ordered and waits
    cluster.delivery_filter = lambda s, d, m: True
    for src, message in held:
        cluster.replicas["node-3"].on_message(src, message)
    cluster.pump()
    assert [seq for seq, _ in cluster.decided["node-3"]] == [1, 2]
    assert cluster.all_decided_consistent()


def test_conflicting_preprepare_triggers_suspicion(make_cluster):
    cluster = make_cluster()
    replica = cluster.replicas["node-1"]
    for cycle in (1, 2):     # two different requests for one sequence number
        preprepare = PrePrepare(view=0, seq=1, request=cluster.signed_request(cycle),
                                primary_id="node-0")
        replica.on_message("node-0", preprepare.signed(cluster.keypairs["node-0"]))
    assert replica.stats.conflicting_preprepares == 1
    assert replica.in_view_change


def test_duplicate_votes_counted_once():
    cluster = BftCluster()
    replica = cluster.replicas["node-3"]
    request = cluster.signed_request(1)
    preprepare = PrePrepare(view=0, seq=1, request=request, primary_id="node-0")
    replica.on_message("node-0", preprepare.signed(cluster.keypairs["node-0"]))
    # The same prepare from node-1, replayed many times, is one vote.
    prepare = Prepare(view=0, seq=1, digest=request.digest, replica_id="node-1")
    signed_prepare = prepare.signed(cluster.keypairs["node-1"])
    for _ in range(5):
        replica.on_message("node-1", signed_prepare)
    assert cluster.decided["node-3"] == []


def test_votes_for_another_digest_fill_the_table_but_not_the_quorum():
    # len(votes) reaching the quorum only ends the shortcut; the count of
    # votes matching the preprepare's digest is what decides.
    cluster = BftCluster()
    replica = cluster.replicas["node-3"]
    request = cluster.signed_request(1)
    preprepare = PrePrepare(view=0, seq=1, request=request, primary_id="node-0")
    replica.on_message("node-0", preprepare.signed(cluster.keypairs["node-0"]))
    instance = replica._instance(1)

    def vote(kind, voter, digest):
        message = kind(view=0, seq=1, digest=digest, replica_id=voter)
        replica.on_message(voter, message.signed(cluster.keypairs[voter]))

    stray = b"\xee" * 32
    vote(Prepare, "node-1", stray)
    assert len(instance.prepares) == 3 and not instance.prepared  # primary's, own, a stray
    vote(Prepare, "node-2", request.digest)
    assert instance.prepared and not instance.committed
    vote(Commit, "node-1", stray)
    vote(Commit, "node-2", request.digest)
    assert len(instance.commits) == 3 and not instance.committed  # own, a stray, node-2's
    vote(Commit, "node-0", request.digest)
    assert instance.committed and cluster.decided["node-3"] == [(1, request)]


def test_log_size_grows_and_shrinks_with_gc(make_cluster):
    cluster = make_cluster(checkpoint_interval=2)
    for cycle in (1, 2):
        cluster.replicas["node-0"].propose(cluster.signed_request(cycle))
    cluster.pump()
    replica = cluster.replicas["node-1"]
    grown = replica.log_size_bytes()
    assert grown > 0
    # Application creates the block checkpoint at seq 2 on every replica.
    digest = b"\x11" * 32
    for node_id in cluster.ids:
        cluster.replicas[node_id].record_checkpoint(2, 1, b"\x22" * 32, digest)
    cluster.pump()
    for replica in cluster.replicas.values():
        assert replica.last_stable_seq == 2
        assert replica.log_size_bytes() == 0
