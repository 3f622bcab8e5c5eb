"""View change and checkpoint subprotocol tests.

Tests taking ``make_cluster`` are the backend-independent contract and run on
LinearBFT too (``conftest.py``); the rest is PBFT's own or needs no replica.
"""

import pytest

from repro.bft import Checkpoint, CheckpointCertificate, NewView, PrePrepare, ViewChange
from repro.wire.messages import is_null_request

from tests.bft.harness import BftCluster, laggard_misses_a_view_change


def test_suspect_quorum_changes_view(make_cluster):
    cluster = make_cluster()
    # All three backups suspect a censoring primary.
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.replicas[node_id].view == 1
        assert cluster.replicas[node_id].primary_id == "node-1"
    # Every replica got the NEWPRIMARY upcall.
    for node_id in cluster.ids:
        assert cluster.new_primaries[node_id][-1] == "node-1"


def test_single_faulty_suspicion_does_not_change_view(make_cluster):
    # Fault case (v) of §III-C: one faulty node suspecting the primary is
    # harmless — view changes need f+1 votes before correct nodes join.
    cluster = make_cluster()
    cluster.replicas["node-3"].suspect()
    cluster.pump()
    for node_id in ("node-0", "node-1", "node-2"):
        assert cluster.replicas[node_id].view == 0
    # And ordering still works in view 0.
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    cluster.pump()
    assert len(cluster.decided["node-0"]) == 1


def test_fplus1_join_rule(make_cluster):
    cluster = make_cluster()
    # Two (= f+1) backups suspect; the third must join and the change completes.
    cluster.replicas["node-1"].suspect()
    cluster.replicas["node-2"].suspect()
    cluster.pump()
    assert all(cluster.replicas[i].view == 1 for i in cluster.ids)


def test_prepared_request_survives_view_change():
    cluster = BftCluster()
    request = cluster.signed_request(1)
    # Deliver the full prepare phase but block all commits, so the request is
    # prepared-but-not-committed when the view changes.
    cluster.delivery_filter = (
        lambda s, d, m: m.__class__.__name__ != "Commit"
    )
    cluster.replicas["node-0"].propose(request)
    cluster.pump()
    assert all(cluster.decided[i] == [] for i in cluster.ids)
    cluster.delivery_filter = lambda s, d, m: True
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    # The new primary re-proposed the prepared request; it decides in view 1.
    for node_id in cluster.ids:
        assert [req.digest for _, req in cluster.decided[node_id]] == [request.digest]


def test_ordering_works_after_view_change(make_cluster):
    cluster = make_cluster()
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    request = cluster.signed_request(5, node_id="node-1")
    assert cluster.replicas["node-1"].propose(request)
    cluster.pump()
    for node_id in cluster.ids:
        assert len(cluster.decided[node_id]) == 1


def test_view_change_timer_escalates(make_cluster):
    cluster = make_cluster()
    # Only node-1 and node-2 receive each other; the change to view 1 stalls.
    cluster.delivery_filter = lambda s, d, m: False
    cluster.replicas["node-1"].suspect()
    cluster.pump()
    env = cluster.envs["node-1"]
    assert env.active_timers()
    env.fire_next_timer()
    cluster.pump()
    # Escalated: node-1 has now voted for view 2 as well.
    votes = cluster.replicas["node-1"]._view_changes
    assert 2 in votes and "node-1" in votes[2]


def test_bad_view_change_signature_ignored(make_cluster):
    cluster = make_cluster()
    forged = ViewChange(new_view=1, last_stable_seq=0,
                        stable_checkpoint_digest=b"\x00" * 32,
                        prepared=(), replica_id="node-2", signature=b"\x00" * 64)
    cluster.replicas["node-1"].on_message("node-2", forged)
    assert cluster.replicas["node-1"].stats.invalid_signatures == 1


def test_checkpoint_certificate_verification():
    cluster = BftCluster()
    block_hash, digest = b"\x22" * 32, b"\x11" * 32
    checkpoints = []
    for node_id in ("node-0", "node-1", "node-2"):
        cp = Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                        state_digest=digest, replica_id=node_id)
        checkpoints.append(cp.signed(cluster.keypairs[node_id]))
    cert = CheckpointCertificate(seq=10, block_height=1, block_hash=block_hash,
                                 state_digest=digest, signatures=tuple(checkpoints))
    assert cert.verify(cluster.keystore, cluster.config)


def test_checkpoint_certificate_insufficient_quorum():
    cluster = BftCluster()
    block_hash, digest = b"\x22" * 32, b"\x11" * 32
    checkpoints = tuple(
        Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                   state_digest=digest, replica_id=node_id).signed(cluster.keypairs[node_id])
        for node_id in ("node-0", "node-1")
    )
    cert = CheckpointCertificate(seq=10, block_height=1, block_hash=block_hash,
                                 state_digest=digest, signatures=checkpoints)
    assert not cert.verify(cluster.keystore, cluster.config)


def test_checkpoint_certificate_mismatched_member_rejected():
    cluster = BftCluster()
    block_hash, digest = b"\x22" * 32, b"\x11" * 32
    good = [
        Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                   state_digest=digest, replica_id=node_id).signed(cluster.keypairs[node_id])
        for node_id in ("node-0", "node-1")
    ]
    outsider_pair = cluster.keypairs["node-0"]
    outsider = Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                          state_digest=digest, replica_id="intruder").signed(outsider_pair)
    cert = CheckpointCertificate(seq=10, block_height=1, block_hash=block_hash,
                                 state_digest=digest,
                                 signatures=tuple(good + [outsider]))
    assert not cert.verify(cluster.keystore, cluster.config)


def test_checkpoint_certificate_roundtrip():
    cluster = BftCluster()
    block_hash, digest = b"\x22" * 32, b"\x11" * 32
    checkpoints = tuple(
        Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                   state_digest=digest, replica_id=node_id).signed(cluster.keypairs[node_id])
        for node_id in ("node-0", "node-1", "node-2")
    )
    cert = CheckpointCertificate(seq=10, block_height=1, block_hash=block_hash,
                                 state_digest=digest, signatures=checkpoints)
    decoded = CheckpointCertificate.decode(cert.encode())
    assert decoded == cert
    assert decoded.verify(cluster.keystore, cluster.config)


def test_stable_checkpoint_advances_watermark_and_fires_upcall(make_cluster):
    cluster = make_cluster(checkpoint_interval=1)
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    cluster.pump()
    digest = b"\x33" * 32
    for node_id in cluster.ids:
        cluster.replicas[node_id].record_checkpoint(1, 1, b"\x44" * 32, digest)
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.replicas[node_id].last_stable_seq == 1
        assert len(cluster.stable_checkpoints[node_id]) == 1
        cert = cluster.stable_checkpoints[node_id][0]
        assert cert.verify(cluster.keystore, cluster.config)


def test_divergent_checkpoint_digests_do_not_stabilize(make_cluster):
    cluster = make_cluster()
    # Nodes disagree on state: no 2f+1 matching digests, nothing stabilizes.
    for index, node_id in enumerate(cluster.ids):
        digest = bytes([index]) * 32
        cluster.replicas[node_id].record_checkpoint(1, 1, b"\x44" * 32, digest)
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.replicas[node_id].last_stable_seq == 0


def test_lone_suspecter_abandons_on_stable_checkpoint(make_cluster):
    # A minority suspecter must not stay wedged: once 2f+1 peers sign a
    # checkpoint past its suspicion point, it abandons the view change and
    # resumes ordering in the view it never managed to leave.
    from repro.obs.trace import RecordingTracer

    cluster = make_cluster()
    victim = cluster.replicas["node-3"]
    tracer = RecordingTracer()
    victim.tracer = tracer
    victim.suspect()
    cluster.pump()
    assert victim.in_view_change
    assert victim.view == 0

    block_hash, digest = b"\x44" * 32, b"\x55" * 32
    for peer in ("node-0", "node-1", "node-2"):
        checkpoint = Checkpoint(seq=10, block_height=1, block_hash=block_hash,
                                state_digest=digest,
                                replica_id=peer).signed(cluster.keypairs[peer])
        victim.on_message(peer, checkpoint)

    assert not victim.in_view_change
    assert victim.stats.view_changes_abandoned == 1
    assert victim._vc_timer is None
    ends = [e for e in tracer.iter_events() if e.name == "bft.viewchange.end"]
    assert len(ends) == 1
    fields = dict(ends[0].fields)
    assert fields["abandoned"] is True
    assert fields["view"] == 0
    # The pairing oracle sees a closed stall, not a permanent one.
    from repro.obs.spans import pair_view_changes
    stalls = pair_view_changes(list(tracer.iter_events()))
    assert len(stalls) == 1 and stalls[0].ended_at is not None


def test_view_change_plugs_unprepared_holes_with_nulls(make_cluster):
    # Classic PBFT gap rule: a seq nobody prepared is filled with a null
    # request so later instances keep their sequence numbers.

    cluster = make_cluster()
    # Drop the view-0 preprepare for seq 2 to every backup: seq 2 never
    # prepares anywhere, seqs 1 and 3 decide normally but execution stalls.
    cluster.delivery_filter = (
        lambda s, d, m: not (isinstance(m, PrePrepare) and m.seq == 2 and m.view == 0)
    )
    for cycle in (1, 2, 3):
        cluster.replicas["node-0"].propose(cluster.signed_request(cycle))
    cluster.pump()
    for node_id in ("node-1", "node-2", "node-3"):
        assert [seq for seq, _ in cluster.decided[node_id]] == [1]

    cluster.delivery_filter = lambda s, d, m: True
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.replicas[node_id].view == 1
        seqs = [seq for seq, _ in cluster.decided[node_id]]
        assert seqs == [1, 2, 3]
        null_decide = dict(cluster.decided[node_id])[2]
        assert is_null_request(null_decide.request)
    assert cluster.all_decided_consistent()


def test_view_change_reproposes_what_a_laggard_has_yet_to_execute(make_cluster):
    # The three view-change rules that are only safe together: proofs cover
    # executed instances, holes are plugged with nulls, and a backup skips
    # reproposals of what it executed.  Without the first, seq 1 would be a
    # hole below seq 2 and the laggard would be handed a null in its place.
    cluster = make_cluster()
    first, _second, new_view = laggard_misses_a_view_change(cluster)
    reproposed = {preprepare.seq: preprepare.request for preprepare in new_view.preprepares}
    assert reproposed[1] == first
    assert cluster.replicas["node-3"]._instances[1].preprepare.digest == first.digest
    for node_id in cluster.ids:
        replica = cluster.replicas[node_id]
        assert replica.view == 1 and not replica.in_view_change
        assert replica.stats.conflicting_preprepares == 0
        assert not any(is_null_request(signed.request) for _, signed in cluster.decided[node_id])
    assert cluster.all_decided_consistent()
