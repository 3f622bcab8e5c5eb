"""LinearBFT backend tests: the shared contract, then what is linear's own."""

import pytest

from repro.bft.linear import CommitCert, LinearBftReplica, Vote
from repro.bft.messages import PrePrepare

from tests.bft import test_replica_ordering, test_viewchange
from tests.bft.harness import contract_tests


@pytest.fixture
def replica_cls():
    return LinearBftReplica


# Every backend-independent test of the PBFT-named modules, on this backend.
globals().update(contract_tests(test_replica_ordering, test_viewchange))


def test_single_request_decided_on_all(make_cluster):
    # ... in 3(n-1) deliveries: the preprepare out, the votes in, the certificate out.
    cluster = make_cluster()
    delivered = []
    cluster.delivery_filter = lambda s, d, m: delivered.append(type(m).__name__) or True
    request = cluster.signed_request(1)
    assert cluster.replicas["node-0"].propose(request)
    cluster.pump()
    assert all(cluster.decided[i] == [(1, request)] for i in cluster.ids)
    assert sorted(delivered) == ["CommitCert"] * 3 + ["PrePrepare"] * 3 + ["Vote"] * 3


def test_votes_go_only_to_primary(make_cluster):
    cluster = make_cluster()
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    # Deliver the preprepare broadcast by hand, then inspect backup output:
    # votes are unicast to the primary, never broadcast (O(n) messages).
    preprepare = cluster.envs["node-0"].broadcasts_of_type(PrePrepare)[0]
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].on_message("node-0", preprepare)
        votes = cluster.envs[node_id].sent_of_type(Vote)
        assert len(votes) == 1
        assert votes[0][0] == "node-0"
        assert cluster.envs[node_id].broadcasts_of_type(Vote) == []


def test_forged_commit_cert_rejected(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    replica = cluster.replicas["node-1"]
    preprepare = PrePrepare(view=0, seq=1, request=request, primary_id="node-0")
    replica.on_message("node-0", preprepare.signed(cluster.keypairs["node-0"]))
    # Certificate with too few / invalid votes must not certify.
    bad_vote = Vote(view=0, seq=1, digest=request.digest, replica_id="node-2")
    forged = CommitCert(view=0, seq=1, digest=request.digest, votes=(bad_vote,))
    replica.on_message("node-0", forged)
    assert cluster.decided["node-1"] == []
    assert replica.stats.invalid_signatures == 1


def test_view_change_elects_new_primary(make_cluster):
    # Linear's own stake in a view change: the votes follow the primary.
    cluster = make_cluster()
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    assert cluster.replicas["node-1"].propose(cluster.signed_request(9, "node-1"))
    preprepare = cluster.envs["node-1"].broadcasts_of_type(PrePrepare)[0]
    cluster.replicas["node-2"].on_message("node-1", preprepare)
    assert [dst for dst, _ in cluster.envs["node-2"].sent_of_type(Vote)] == ["node-1"]
    cluster.pump()
    assert all(len(cluster.decided[i]) == 1 for i in cluster.ids)


def test_certified_request_survives_view_change(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    # Block commit certificates: requests get certified on the primary only.
    cluster.delivery_filter = lambda s, d, m: not isinstance(m, CommitCert)
    cluster.replicas["node-0"].propose(request)
    cluster.pump()
    assert all(cluster.decided[i] == [] for i in ("node-1", "node-2", "node-3"))
    cluster.delivery_filter = lambda s, d, m: True
    for node_id in ("node-1", "node-2", "node-3"):
        cluster.replicas[node_id].suspect()
    cluster.pump()
    for node_id in ("node-1", "node-2", "node-3"):
        assert [req.digest for _, req in cluster.decided[node_id]] == [request.digest]


def test_checkpoint_garbage_collection(make_cluster):
    cluster = make_cluster(checkpoint_interval=1)
    cluster.replicas["node-0"].propose(cluster.signed_request(1))
    cluster.pump()
    for node_id in cluster.ids:
        cluster.replicas[node_id].record_checkpoint(1, 1, b"\x22" * 32, b"\x11" * 32)
    cluster.pump()
    for node_id in cluster.ids:
        assert cluster.replicas[node_id].last_stable_seq == 1
        cert = cluster.replicas[node_id].latest_stable_checkpoint()
        assert cert is not None and cert.verify(cluster.keystore, cluster.config)


def test_commit_cert_roundtrip(make_cluster):
    cluster = make_cluster()
    request = cluster.signed_request(1)
    votes = tuple(
        Vote(view=0, seq=1, digest=request.digest,
             replica_id=i).signed(cluster.keypairs[i])
        for i in ("node-0", "node-1", "node-2")
    )
    cert = CommitCert(view=0, seq=1, digest=request.digest, votes=votes)
    decoded = CommitCert.decode(cert.encode())
    assert decoded == cert
    assert decoded.verify(cluster.keystore, cluster.config)
