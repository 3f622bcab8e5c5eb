"""Execution gap fill: DecideFetch/DecideProof repair and view-change nulls.

Message loss can leave a replica with decided instances *above* a hole it
never learned about (``_pending_exec`` grows, ``_next_exec`` stalls).  The
repair protocol: a stall timer sends a signed ``DecideFetch`` to one peer;
the peer answers with ``DecideProof``s — preprepare plus 2f+1 commits —
which are safe to execute in any view.  Holes that *nobody* can prove are
plugged by the next view change with null requests.
"""

from repro.bft.messages import Commit, DecideFetch, DecideProof, PrePrepare
from repro.wire.messages import is_null_request, null_request

from tests.bft.harness import BftCluster, laggard_misses_a_view_change


def isolate_then_heal(cluster, victim="node-3", cycles=(1, 2, 3)):
    """Decide some seqs while ``victim`` is cut off, then reconnect it."""
    cluster.delivery_filter = lambda s, d, m: victim not in (s, d)
    for cycle in cycles:
        cluster.replicas["node-0"].propose(cluster.signed_request(cycle))
    cluster.pump()
    cluster.delivery_filter = lambda s, d, m: True


def test_stalled_replica_sends_decide_fetch():
    cluster = BftCluster()
    isolate_then_heal(cluster)
    # The victim now receives one more instance: seq 4 decides, but seqs
    # 1-3 are a hole — execution cannot advance, the gap timer arms.
    cluster.replicas["node-0"].propose(cluster.signed_request(4))
    cluster.pump()
    victim = cluster.replicas["node-3"]
    assert cluster.decided["node-3"] == []
    assert victim._pending_exec
    env = cluster.envs["node-3"]
    env.clear()
    env.fire_next_timer()  # the gap timer
    fetches = env.sent_of_type(DecideFetch)
    assert len(fetches) == 1
    _, fetch = fetches[0]
    assert fetch.first_seq == 1
    assert fetch.last_seq == 4
    assert fetch.verify(cluster.keystore)
    assert victim.stats.gap_fetches_sent == 1


def test_decide_proofs_fill_the_gap_and_execution_resumes():
    cluster = BftCluster()
    isolate_then_heal(cluster)
    cluster.replicas["node-0"].propose(cluster.signed_request(4))
    cluster.pump()
    env = cluster.envs["node-3"]
    env.clear()
    env.fire_next_timer()
    (peer_id, fetch), = env.sent_of_type(DecideFetch)

    peer_env = cluster.envs[peer_id]
    peer_env.clear()
    cluster.replicas[peer_id].on_message("node-3", fetch)
    proofs = peer_env.sent_of_type(DecideProof)
    assert len(proofs) == 4  # seqs 1..4, all committed at the peer
    assert cluster.replicas[peer_id].stats.gap_proofs_served == 4

    victim = cluster.replicas["node-3"]
    for dst, proof in proofs:
        assert dst == "node-3"
        victim.on_message(peer_id, proof)
    assert victim.stats.gap_seqs_filled >= 3
    assert [seq for seq, _ in cluster.decided["node-3"]] == [1, 2, 3, 4]
    assert cluster.all_decided_consistent()
    # The stall is resolved: the gap timer is disarmed.
    assert victim._gap_timer is None or not victim._gap_timer.active


def test_gap_fill_hands_a_laggard_the_reproposed_request():
    # Where the shared view-change scenario ends for PBFT: the laggard holds
    # the re-proposed seq 1 but nobody re-votes on what they executed, so it
    # fetches the decision — the real request, committed in the old view.
    cluster = BftCluster()
    first, second, _ = laggard_misses_a_view_change(cluster)
    assert cluster.decided["node-3"] == []
    cluster.envs["node-3"].fire_next_timer()
    cluster.pump()
    assert cluster.decided["node-3"] == [(1, first), (2, second)]


def test_forged_proof_rejected():
    cluster = BftCluster()
    isolate_then_heal(cluster, cycles=(1,))
    cluster.replicas["node-0"].propose(cluster.signed_request(2))
    cluster.pump()
    victim = cluster.replicas["node-3"]
    peer = cluster.replicas["node-0"]
    instance = peer._instances[1]
    # Quorum of commits but for a request the preprepare does not carry.
    wrong = cluster.signed_request(99, payload=b"forged")
    forged_pp = PrePrepare(view=0, seq=1, request=wrong,
                           primary_id="node-0").signed(cluster.keypairs["node-0"])
    proof = DecideProof(
        replica_id="node-0", preprepare=forged_pp,
        commits=tuple(instance.commits.values()),
    ).signed(cluster.keypairs["node-0"])
    before = dict(victim._pending_exec)
    victim.on_message("node-0", proof)
    # Commit digests do not match the forged preprepare: nothing executes.
    assert victim._pending_exec == before
    assert cluster.decided["node-3"] == []


def test_underquorum_proof_rejected():
    cluster = BftCluster()
    isolate_then_heal(cluster, cycles=(1,))
    cluster.replicas["node-0"].propose(cluster.signed_request(2))
    cluster.pump()
    victim = cluster.replicas["node-3"]
    peer = cluster.replicas["node-0"]
    instance = peer._instances[1]
    commits = tuple(instance.commits.values())[:2]  # quorum is 3
    proof = DecideProof(
        replica_id="node-0", preprepare=instance.preprepare, commits=commits,
    ).signed(cluster.keypairs["node-0"])
    victim.on_message("node-0", proof)
    assert cluster.decided["node-3"] == []


def test_null_request_round_trip_and_digest_uniqueness():
    a, b = null_request(3), null_request(4)
    assert is_null_request(a) and is_null_request(b)
    assert a.digest != b.digest  # the seq is folded into the digest
    assert not is_null_request(
        BftCluster().signed_request(1).request
    )
