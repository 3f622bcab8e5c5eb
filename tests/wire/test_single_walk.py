"""``encode()`` walks each nested struct once.

A child with no size memo is written in place and its length prefix
inserted before its fields afterwards, which memoises the child's size on
the way.  Whatever the memos held before, the bytes must be those of an
equal message whose sizes were all counted first by ``encoded_size()``.
"""

import dataclasses

import pytest

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.messages import Checkpoint, PrePrepare
from repro.chain.block import Block, BlockHeader
from repro.export.messages import ReadReply
from repro.util.errors import CodecError
from repro.wire import Request, SignedRequest, decode_message, encode_message
from repro.wire.codec import _SIZE_MEMO as SIZE_MEMO
from repro.wire.codec import WireStruct

SIG = b"\x5a" * 64


def request(cycle: int = 7, payload: bytes = b"jru" * 50) -> Request:
    return Request(payload=payload, bus_cycle=cycle, recv_timestamp_us=cycle * 64_000)


def signed(cycle: int = 7, signature: bytes = SIG) -> SignedRequest:
    return SignedRequest(request=request(cycle), node_id="node-0", signature=signature)


def warm_request_child() -> SignedRequest:
    message = signed()
    message.request.encoded_size()
    return message


def block_of_cold_requests() -> Block:
    header = BlockHeader(height=3, prev_hash=b"\x01" * 32, payload_root=b"\x02" * 32,
                         timestamp_us=192_000, request_count=40, last_sn=40)
    # 40 requests of 160 bytes: the list's items are short, the block's length is not.
    return Block(header=header, requests=tuple(signed(cycle) for cycle in range(40)))


def certificate_of_cold_checkpoints() -> CheckpointCertificate:
    votes = tuple(Checkpoint(seq=40, block_height=3, block_hash=b"\x03" * 32,
                             state_digest=b"\x04" * 32, replica_id=f"node-{i}",
                             signature=SIG) for i in range(3))
    return CheckpointCertificate(seq=40, block_height=3, block_hash=b"\x03" * 32,
                                 state_digest=b"\x04" * 32, signatures=votes)


#: Each builds a fresh message whose nested structs have no size memo,
#: unless the case says otherwise.
CASES = {
    "cold child": signed,
    "warm child": warm_request_child,
    "absent child": lambda: ReadReply(replica_id="node-1", checkpoint=None, blocks=(),
                                      signature=SIG),
    "two levels": lambda: PrePrepare(view=0, seq=1, request=signed(), primary_id="node-0",
                                     signature=SIG),
    "list of cold structs": block_of_cold_requests,
    "list of cold signed structs": certificate_of_cold_checkpoints,
    "list inside an optional child": lambda: ReadReply(
        replica_id="node-1", checkpoint=certificate_of_cold_checkpoints(),
        blocks=(block_of_cold_requests(),), signature=SIG),
}


def nested(message: WireStruct):
    """Every struct written behind a length prefix inside ``message``, depth first."""
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, WireStruct):
                yield child
                yield from nested(child)


def counted_first(build):
    """The same message after ``encoded_size()`` counted every size in it."""
    message = build()
    message.encoded_size()
    return message


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_equal_those_of_a_message_sized_first(name):
    build = CASES[name]
    message = build()
    data = message.encode()
    assert data == counted_first(build).encode()
    assert len(data) == message.encoded_size()
    assert type(message).decode(data) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_child_memo_is_its_own_encoding_length(name):
    message = CASES[name]()
    message.encode()
    children = list(nested(message))
    assert children or name == "absent child"
    for child in children:
        memo = vars(child)[SIZE_MEMO]
        assert memo == len(child.encode())


@pytest.mark.parametrize("name", sorted(CASES))
def test_encode_asks_no_child_for_its_size(name, monkeypatch):
    message = CASES[name]()
    expected = counted_first(CASES[name]).encode()
    monkeypatch.setattr(WireStruct, "encoded_size",
                        lambda self: pytest.fail("a size walk inside encode()"))
    assert message.encode() == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_envelope_of_a_cold_message(name):
    build = CASES[name]
    message = build()
    frame = encode_message(message)
    assert frame == encode_message(counted_first(build))
    assert vars(message)[SIZE_MEMO] == message.encoded_size() == len(message.encode())
    assert decode_message(frame) == (message, len(frame))


@pytest.mark.parametrize("encode", [lambda m: m.encode(), encode_message, lambda m: m.encoded_size()],
                         ids=["encode", "encode_message", "encoded_size"])
def test_a_wrong_length_fixed_field_still_raises(encode):
    forged = signed(signature=b"\x5a" * 10)
    message = PrePrepare(view=0, seq=1, request=forged, primary_id="node-0", signature=SIG)
    with pytest.raises(CodecError, match="fixed field expected 64 bytes, got 10"):
        encode(message)
    assert SIZE_MEMO not in vars(forged) and SIZE_MEMO not in vars(message)
