"""Request and SignedRequest tests: identity, signing, wire roundtrips."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.crypto import HmacScheme, KeyStore
from repro.util import CodecError
from repro.wire import Request, SignedRequest, decode_message, encode_message, registered_types
from repro.wire.codec import WireStruct


def make_request(payload=b"signals", cycle=7, ts=1_000_000, link="mvb0"):
    return Request(payload=payload, bus_cycle=cycle, recv_timestamp_us=ts, source_link=link)


def test_digest_ignores_reception_timestamp():
    # Two nodes read the same telegram at slightly different local times;
    # filtering must treat them as duplicates.
    a = make_request(ts=1_000_000)
    b = make_request(ts=1_000_250)
    assert a.digest == b.digest


def test_digest_covers_payload_cycle_and_link():
    base = make_request()
    assert make_request(payload=b"other").digest != base.digest
    assert make_request(cycle=8).digest != base.digest
    assert make_request(link="mvb1").digest != base.digest


def test_request_roundtrip():
    request = make_request()
    assert Request.decode(request.encode()) == request


@given(
    st.binary(max_size=256),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**48),
)
def test_request_roundtrip_property(payload, cycle, ts):
    request = Request(payload=payload, bus_cycle=cycle, recv_timestamp_us=ts)
    decoded = Request.decode(request.encode())
    assert decoded == request
    assert decoded.digest == request.digest


def test_signed_request_verifies():
    scheme = HmacScheme()
    pair = scheme.derive_keypair(b"node-0")
    store = KeyStore(scheme=scheme)
    store.register("node-0", pair.public)
    signed = SignedRequest.create(make_request(), "node-0", pair)
    assert signed.verify(store)


def test_signed_request_wrong_claimed_id_rejected():
    scheme = HmacScheme()
    pair0 = scheme.derive_keypair(b"node-0")
    pair1 = scheme.derive_keypair(b"node-1")
    store = KeyStore(scheme=scheme)
    store.register("node-0", pair0.public)
    store.register("node-1", pair1.public)
    # node-1 signs but claims to be node-0
    forged = SignedRequest.create(make_request(), "node-0", pair1)
    assert not forged.verify(store)


def test_signed_request_tampered_payload_rejected():
    scheme = HmacScheme()
    pair = scheme.derive_keypair(b"node-0")
    store = KeyStore(scheme=scheme)
    store.register("node-0", pair.public)
    signed = SignedRequest.create(make_request(), "node-0", pair)
    tampered = SignedRequest(
        request=make_request(payload=b"forged"),
        node_id=signed.node_id,
        signature=signed.signature,
    )
    assert not tampered.verify(store)


def test_signed_request_roundtrip():
    scheme = HmacScheme()
    pair = scheme.derive_keypair(b"node-0")
    signed = SignedRequest.create(make_request(), "node-0", pair)
    decoded = SignedRequest.decode(signed.encode())
    assert decoded == signed
    assert decoded.digest == signed.digest


def test_encoded_size_matches_wire_bytes():
    request = make_request(payload=b"x" * 1024)
    assert request.encoded_size() == len(request.encode())


def test_registry_roundtrip():
    request = make_request()
    encoded = encode_message(request)
    decoded, consumed = decode_message(encoded)
    assert decoded == request
    assert consumed == len(encoded)


def test_a_taken_tag_raises_naming_both_classes_and_leaves_the_registry_unchanged():
    before = registered_types()
    with pytest.raises(CodecError, match="Request.*Impostor"):
        class Impostor(WireStruct, tag=1):
            seq: int
    assert registered_types() == before


def test_an_untagged_subclass_of_a_tagged_class_has_no_tag():
    @dataclass(frozen=True)
    class Stamped(Request):
        note: str = ""

    assert Stamped not in registered_types().values()
    with pytest.raises(CodecError, match="Stamped has no wire tag"):
        encode_message(Stamped(payload=b"x", bus_cycle=1, recv_timestamp_us=2))
    assert decode_message(encode_message(make_request()))[0] == make_request()


def test_registry_unknown_tag():
    with pytest.raises(CodecError):
        decode_message(b"\xff\xff\x7f\x00")


def test_registry_unregistered_type():
    class Foreign:
        def encode(self):
            return b""

    with pytest.raises(CodecError):
        encode_message(Foreign())
