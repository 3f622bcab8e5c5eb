"""Cost-table tests: crypto counts per message type, size accounting."""

import pytest

from repro.bft.client import ClientRequestWrapper, Reply
from repro.bft.messages import Checkpoint, Commit, PrePrepare, Prepare, ViewChange
from repro.core.messages import ZugBroadcast, ZugForward
from repro.crypto import HmacScheme
from repro.runtime import ETHERNET_OVERHEAD_BYTES, recv_cost, send_cost, wire_size
from repro.runtime.costs import discard_cost
from repro.sim.resources import CostModel
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")
MODEL = CostModel()


def signed_request(payload=b"x" * 100):
    request = Request(payload=payload, bus_cycle=1, recv_timestamp_us=1)
    return SignedRequest.create(request, "node-0", PAIR)


def preprepare(payload=b"x" * 100):
    return PrePrepare(view=0, seq=1, request=signed_request(payload),
                      primary_id="node-0").signed(PAIR)


def prepare():
    return Prepare(view=0, seq=1, digest=b"\x11" * 32, replica_id="node-0").signed(PAIR)


def test_wire_size_includes_framing():
    msg = prepare()
    assert wire_size(msg) == msg.encoded_size() + ETHERNET_OVERHEAD_BYTES


def test_preprepare_costs_two_signatures():
    # A preprepare carries the signed request plus the primary's signature.
    pp_cost = send_cost(preprepare(), MODEL)
    vote_cost = send_cost(prepare(), MODEL)
    assert pp_cost > vote_cost + MODEL.sign_s * 0.9


def test_recv_preprepare_verifies_two_signatures():
    assert recv_cost(preprepare(), MODEL) > recv_cost(prepare(), MODEL) + MODEL.verify_s * 0.9


def test_forward_is_cheaper_than_broadcast_to_emit():
    # A forward relays an existing signature; no new signing.
    signed = signed_request()
    fwd = ZugForward(request=signed, forwarder_id="node-1")
    bc = ZugBroadcast(request=signed)
    assert send_cost(fwd, MODEL) < send_cost(bc, MODEL)


def test_broadcast_copies_scale_serialization_not_signing():
    msg = prepare()
    one = send_cost(msg, MODEL, copies=1)
    three = send_cost(msg, MODEL, copies=3)
    assert three > one
    # The delta is serialization only, much less than a signature each.
    assert three - one < 2 * MODEL.sign_s


def test_payload_hashing_scales_with_size():
    small = recv_cost(preprepare(b"x" * 32), MODEL)
    large = recv_cost(preprepare(b"x" * 8192), MODEL)
    assert large > small + MODEL.hash_per_byte_s * 8000 * 0.9


def test_viewchange_cost_scales_with_prepared_proofs():
    from repro.bft.messages import PreparedProof

    empty = ViewChange(new_view=1, last_stable_seq=0,
                       stable_checkpoint_digest=b"\x00" * 32,
                       prepared=(), replica_id="node-0").signed(PAIR)
    proofs = tuple(
        PreparedProof(view=0, seq=i, digest=b"\x11" * 32, request=signed_request())
        for i in range(5)
    )
    full = ViewChange(new_view=1, last_stable_seq=0,
                      stable_checkpoint_digest=b"\x00" * 32,
                      prepared=proofs, replica_id="node-0").signed(PAIR)
    assert recv_cost(full, MODEL) > recv_cost(empty, MODEL) + 4 * MODEL.verify_s


def test_vote_types_have_symmetric_unit_costs():
    commit = Commit(view=0, seq=1, digest=b"\x11" * 32, replica_id="node-0").signed(PAIR)
    checkpoint = Checkpoint(seq=1, block_height=1, block_hash=b"\x11" * 32,
                            state_digest=b"\x22" * 32, replica_id="node-0").signed(PAIR)
    reply = Reply(seq=1, digest=b"\x11" * 32, client_id="node-0",
                  replica_id="node-0").signed(PAIR)
    for msg in (commit, checkpoint, reply):
        # one verify each on ingest
        assert MODEL.verify_s < recv_cost(msg, MODEL) < MODEL.verify_s + 1e-3


def test_client_wrapper_costs_one_signature():
    wrapper = ClientRequestWrapper(request=signed_request())
    assert MODEL.sign_s < send_cost(wrapper, MODEL) < MODEL.sign_s + 1e-3 + MODEL.hash_cost(100)


def test_discarding_a_vote_costs_its_ingest_without_the_verify():
    vote = prepare()
    size = wire_size(vote)
    # Exactly the terms of recv_cost that do not depend on the signature:
    # the simulated numbers hang on this sum, so it is pinned, not bounded.
    assert discard_cost(size, MODEL) == MODEL.message_overhead_s + MODEL.serialize_cost(size)
    assert discard_cost(size, MODEL) == pytest.approx(recv_cost(vote, MODEL) - MODEL.verify_s)
    assert discard_cost(2 * size, MODEL) - discard_cost(size, MODEL) == pytest.approx(
        MODEL.serialize_per_byte_s * size)
