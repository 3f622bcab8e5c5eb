"""Regressions for the verify-before-mutate fixes surfaced by the FLOW rules.

Each test pins one protocol-state write that used to happen before the
corresponding signature/membership check: a forged message must leave
the state exactly as it found it.
"""

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.linear import CommitCert, Vote
from repro.bft.messages import Checkpoint, PrePrepare
from repro.core.statesync import StateReply
from repro.crypto import HmacScheme
from repro.scenarios import ScenarioConfig, SimulatedCluster
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()


def fresh_cluster(**overrides):
    return SimulatedCluster(ScenarioConfig(system="zugchain", **overrides))


def test_forged_preprepare_does_not_cancel_soft_timer():
    # The soft timeout is the §III-C liveness backstop: a request the
    # primary never orders gets broadcast after soft_timeout_s.  A forged
    # preprepare must not be able to suppress that forwarding.
    cluster = fresh_cluster()
    node = cluster.nodes["node-1"]
    request = Request(payload=b"signal" * 4, bus_cycle=1, recv_timestamp_us=10)
    node.inject_request(request)
    entry = node.layer._queue[request.digest]
    assert entry.soft_timer is not None

    outsider = SCHEME.derive_keypair(b"not-a-member")
    forged = PrePrepare(
        view=0, seq=1,
        request=SignedRequest.create(request, "node-0", outsider),
        primary_id="node-0",
    ).signed(outsider)
    node.handle_message("node-0", forged)
    assert entry.soft_timer is not None

    primary_pair = SCHEME.derive_keypair(b"node-0")
    genuine = PrePrepare(
        view=0, seq=1,
        request=SignedRequest.create(request, "node-0", primary_pair),
        primary_id="node-0",
    ).signed(primary_pair)
    node.handle_message("node-0", genuine)
    assert entry.soft_timer is None


def _bogus_reply():
    certificate = CheckpointCertificate(
        seq=4, block_height=100, block_hash=b"\x11" * 32,
        state_digest=b"\x22" * 32, signatures=(),
    )
    return StateReply(
        replica_id="node-0", checkpoint=certificate, blocks=(),
        prune_base_height=0, prune_base_hash=b"", prune_signatures=(),
    )


def test_forged_state_reply_does_not_clear_sync_latch():
    cluster = fresh_cluster()
    node = cluster.nodes["node-1"]
    node.statesync._sync_in_flight = True
    rejected_before = node.statesync.stats.rejected

    node.handle_message("node-0", _bogus_reply())  # unsigned: outer verify fails
    assert node.statesync._sync_in_flight is True
    assert node.statesync.stats.rejected == rejected_before + 1


def test_state_reply_with_invalid_certificate_does_not_clear_sync_latch():
    # Outer signature genuine, inner checkpoint certificate empty: the
    # latch (and the block builder) must still be untouched.
    cluster = fresh_cluster()
    node = cluster.nodes["node-1"]
    node.statesync._sync_in_flight = True
    pending_before = len(node.builder._pending)

    signed = _bogus_reply().signed(SCHEME.derive_keypair(b"node-0"))
    node.handle_message("node-0", signed)
    assert node.statesync._sync_in_flight is True
    assert node.statesync.stats.completed == 0
    assert len(node.builder._pending) == pending_before


def test_non_member_checkpoint_cannot_vouch_for_sync():
    cluster = fresh_cluster()
    node = cluster.nodes["node-1"]
    outsider = SCHEME.derive_keypair(b"intruder-1")
    lie = Checkpoint(
        seq=10_000, block_height=1_000, block_hash=b"\x66" * 32,
        state_digest=b"\x66" * 32, replica_id="intruder-1",
    ).signed(outsider)
    node.statesync.observe_checkpoint("intruder-1", lie)
    assert "intruder-1" not in node.statesync._observed_ahead
    assert node.statesync._sync_in_flight is False


def test_forged_member_checkpoint_cannot_vouch_for_sync():
    cluster = fresh_cluster()
    node = cluster.nodes["node-1"]
    wrong_key = SCHEME.derive_keypair(b"someone-else")
    forged = Checkpoint(
        seq=10_000, block_height=1_000, block_hash=b"\x66" * 32,
        state_digest=b"\x66" * 32, replica_id="node-3",
    ).signed(wrong_key)
    node.statesync.observe_checkpoint("node-3", forged)
    assert "node-3" not in node.statesync._observed_ahead


def test_unverified_commit_cert_allocates_no_log_state():
    cluster = fresh_cluster(bft_backend="linear")
    replica = cluster.nodes["node-1"].replica
    outsider = SCHEME.derive_keypair(b"evil")
    vote = Vote(
        view=0, seq=7, digest=b"\x99" * 32, replica_id="node-0",
    ).signed(outsider)
    cert = CommitCert(view=0, seq=7, digest=b"\x99" * 32, votes=(vote,))
    replica.on_message("node-0", cert)
    assert 7 not in replica._instances


def test_linear_bft_messages_have_wire_tags():
    from repro.wire import registered_types

    assert registered_types()[18] is Vote
    assert registered_types()[19] is CommitCert
