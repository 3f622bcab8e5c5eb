"""Size algebra: one field list per message, two writers, one answer.

``WireStruct`` derives ``encode()`` and ``encoded_size()`` from the same
field list, the first through :class:`Writer`, the second through
:class:`SizeWriter`, and memoises the size on the frozen instance.  These
tests pin the facts everything downstream leans on: the counting writer,
``len(encode())`` and ``encoded_size()`` agree for every registered type
(the network-utilisation numbers are sums of these sizes); the memo never
leaks into a copy or into what a message *is* (``==``, ``hash``, ``repr``,
pickle); the tagged envelope still round-trips; and the derived codec is the
only one — no struct carries a codec or signing method of its own.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.linear import CommitCert
from repro.bft.messages import DecideProof, NewView, PrePrepare, Prepare, ViewChange
from repro.bus.frames import BusCycleData
from repro.chain.block import genesis_block
from repro.core.statesync import StateReply
from repro.crypto import KeyStore
from repro.export.messages import BlockFetchReply, ReadReply
from repro.util.varint import encode_uvarint, uvarint_size
from repro.wire import Request, SignedRequest, decode_message, encode_message
from repro.wire.codec import _SIZE_MEMO as SIZE_MEMO
from repro.wire.codec import UNSIGNED, SignedStruct, SizeWriter, WireStruct, Writer
from repro.wire import registered_types

from tests.wire.golden_bytes import DC_PAIR, FIXTURES, PAIR, SCHEME, load_golden

VARINT_BOUNDARIES = (0, 127, 128, 16383, 16384, 2**63)
LENGTH_BOUNDARIES = (0, 127, 128, 16383, 16384)

by_type = pytest.mark.parametrize(
    "cls", [cls for _, cls in sorted(registered_types().items())],
    ids=lambda cls: cls.__name__,
)


def counted(message) -> int:
    """The counting writer's answer, bypassing the message's own memo."""
    counter = SizeWriter()
    message.write_to(counter)
    return counter.size


def assert_sizes_agree(message) -> None:
    assert SIZE_MEMO not in vars(message), "fixture is not cold"
    cold = message.encoded_size()
    assert cold == counted(message) == len(message.encode())
    assert message.encoded_size() == cold          # warm read


# -- every registered type, every golden fixture ---------------------------


@by_type
def test_counting_writer_encode_and_memo_agree(cls):
    assert_sizes_agree(FIXTURES[cls]())


@by_type
def test_size_is_not_measured_by_encoding(cls, monkeypatch):
    message = FIXTURES[cls]()
    monkeypatch.setattr(Writer, "getvalue", lambda self: pytest.fail("serialized for a size"))
    assert message.encoded_size() == counted(message)


@pytest.mark.parametrize("name,golden_hex", sorted(load_golden().items()))
def test_golden_bytes_decode_to_messages_of_the_same_size(name, golden_hex):
    raw = bytes.fromhex(golden_hex)
    message, consumed = decode_message(raw)
    assert type(message).__name__ == name and consumed == len(raw)
    assert_sizes_agree(message)
    assert encode_message(message) == raw


def qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def wire_structs(base=WireStruct) -> list[type]:
    """Every ``repro`` class under ``base``, registered or not, by qualified name.

    ``golden_bytes`` imports every ``repro`` module before this runs, and
    classes that test modules declare are left out, so the list (and the
    test ids made from it) does not depend on which tests were collected.
    """
    found = set()
    pending = [base]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.add(cls)
            pending.append(cls)
    return sorted((cls for cls in found if cls.__module__.startswith("repro.")),
                  key=qualified_name)


CODEC_NAMES = {"write_to", "decode", "read_from", "signed", "verify", "encode", "encoded_size"}

#: The names a struct may still define, and why.
OWN_METHODS = {
    # perfbench wraps it as a bus-layer boundary (see the override's comment).
    BusCycleData: {"encode"},
    # Not a signature check: a quorum of *member* signatures against a BftConfig.
    CheckpointCertificate: {"verify"},
    CommitCert: {"verify"},
}


@pytest.mark.parametrize(
    "cls", [cls for cls in wire_structs() if cls is not SignedStruct],
    ids=lambda cls: cls.__name__)
def test_codec_lives_in_the_base_only(cls):
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    for klass in cls.__mro__:
        if klass not in (WireStruct, SignedStruct, object):
            own = CODEC_NAMES & vars(klass).keys()
            assert own == OWN_METHODS.get(klass, set()), klass.__name__
            if "verify" in own:
                assert "config" in inspect.signature(klass.verify).parameters
    if not issubclass(cls, SignedStruct):
        assert not hasattr(cls, "signed") and not hasattr(cls, "signing_payload")


def test_every_registered_type_is_covered_by_the_check_above():
    assert set(registered_types().values()) <= set(wire_structs())


SIGNING_TYPES = [cls for _, cls in sorted(registered_types().items())
                 if issubclass(cls, SignedStruct)]


@pytest.mark.parametrize("cls", SIGNING_TYPES, ids=lambda cls: cls.__name__)
def test_signed_verifies_under_its_own_key_and_no_other(cls):
    unsigned = dataclasses.replace(FIXTURES[cls](), signature=UNSIGNED)
    signer = getattr(unsigned, cls.SIGNER)
    assert cls.SIGNER in {field.name for field in dataclasses.fields(cls)}
    own, other = KeyStore(scheme=SCHEME), KeyStore(scheme=SCHEME)
    own.register(signer, PAIR.public)
    other.register(signer, DC_PAIR.public)
    signed = unsigned.signed(PAIR)
    assert signed.signature != UNSIGNED and signed != unsigned
    assert dataclasses.replace(signed, signature=UNSIGNED) == unsigned
    # The generated constructor against the reference it replaced.
    reference = dataclasses.replace(unsigned, signature=PAIR.sign(unsigned.signing_payload()))
    assert type(signed) is cls and signed == reference and signed.encode() == reference.encode()
    assert signed.verify(own)
    assert not signed.verify(other)
    assert not unsigned.verify(own)
    assert not signed.verify(KeyStore(scheme=SCHEME))   # unknown signer


# -- varint boundaries, empty lists, absent certificates -----------------------


@pytest.mark.parametrize("value", VARINT_BOUNDARIES)
def test_uint_boundaries(value):
    writer, counter = Writer(), SizeWriter()
    writer.put_uint(value)
    counter.put_uint(value)
    assert writer.getvalue() == encode_uvarint(value)
    assert counter.size == len(writer) == uvarint_size(value)


@pytest.mark.parametrize("length", LENGTH_BOUNDARIES)
def test_length_prefix_boundaries(length):
    for put, field in (("put_bytes", b"\x5a" * length), ("put_str", "z" * length),
                       ("put_str", "ü" * (length // 2) + "z" * (length % 2))):
        writer, counter = Writer(), SizeWriter()
        getattr(writer, put)(field)
        getattr(counter, put)(field)
        assert counter.size == len(writer) == uvarint_size(length) + length


def request_of_size(size: int) -> Request:
    """A request whose encoding is exactly ``size`` bytes."""
    for payload_len in range(max(0, size - 16), size):
        request = Request(payload=b"\x00" * payload_len, bus_cycle=0, recv_timestamp_us=0)
        if counted(request) == size:
            return request
    raise AssertionError(f"no request encodes to {size} bytes")


@pytest.mark.parametrize("inner_size", [size for size in LENGTH_BOUNDARIES if size])
def test_nested_length_prefix_boundaries(inner_size):
    request = request_of_size(inner_size)
    signed = SignedRequest.create(request, "node-0", PAIR)
    preprepare = PrePrepare(view=0, seq=1, request=signed, primary_id="node-0").signed(PAIR)
    for message in (request, signed, preprepare):
        assert_sizes_agree(message)
    assert decode_message(encode_message(preprepare))[0] == preprepare


@pytest.mark.parametrize("value", VARINT_BOUNDARIES)
def test_field_value_boundaries(value):
    message = Prepare(view=value, seq=value, digest=b"\x01" * 32, replica_id="node-1")
    assert_sizes_agree(message)
    assert Prepare.decode(message.encode()) == message


EMPTY = {
    "view change without proofs": lambda: ViewChange(
        new_view=1, last_stable_seq=0, stable_checkpoint_digest=b"\x02" * 32,
        prepared=(), replica_id="node-1"),
    "new view without content": lambda: NewView(
        view=1, view_changes=(), preprepares=(), primary_id="node-1"),
    "certificate without signatures": lambda: CheckpointCertificate(
        seq=1, block_height=1, block_hash=b"\x03" * 32, state_digest=b"\x04" * 32,
        signatures=()),
    "commit certificate without votes": lambda: CommitCert(
        view=0, seq=1, digest=b"\x05" * 32, votes=()),
    "decide proof without commits": lambda: DecideProof(
        replica_id="node-1", preprepare=FIXTURES[PrePrepare](), commits=()),
    "read reply without checkpoint or blocks": lambda: ReadReply(
        replica_id="node-1", checkpoint=None, blocks=()),
    "fetch reply without blocks": lambda: BlockFetchReply(replica_id="node-1", blocks=()),
    "state reply without blocks or deletes": lambda: StateReply(
        replica_id="node-1", checkpoint=FIXTURES[CheckpointCertificate](), blocks=(),
        prune_base_height=0, prune_base_hash=b"", prune_signatures=()),
    "block without requests": genesis_block,
}


@pytest.mark.parametrize("name", sorted(EMPTY))
def test_empty_lists_and_absent_certificates(name):
    message = EMPTY[name]()
    assert_sizes_agree(message)
    assert decode_message(encode_message(message))[0] == message


# -- memo hygiene ------------------------------------------------------------


def warmed(message):
    message.encoded_size()
    message.encode()
    if isinstance(message, SignedRequest):
        message.merkle_leaf
    return message


@by_type
def test_copies_start_cold_and_size_their_own_fields(cls):
    original = warmed(FIXTURES[cls]())
    assert SIZE_MEMO in vars(original)
    copy = dataclasses.replace(original)
    assert SIZE_MEMO not in vars(copy)
    assert copy.encoded_size() == original.encoded_size()
    for field in dataclasses.fields(original):
        value = getattr(original, field.name)
        if isinstance(value, str):
            longer = dataclasses.replace(original, **{field.name: value + "-and-more"})
            assert SIZE_MEMO not in vars(longer)
            assert longer.encoded_size() == len(longer.encode()) == original.encoded_size() + 9


def test_signed_copy_encodes_its_own_signature():
    unsigned = warmed(Prepare(view=1, seq=2, digest=b"\x06" * 32, replica_id="node-1"))
    signed = unsigned.signed(PAIR)
    assert SIZE_MEMO not in vars(signed)
    assert signed.signature != unsigned.signature
    assert signed.encode().endswith(signed.signature)
    assert signed.encode() != unsigned.encode()
    assert signed.encoded_size() == unsigned.encoded_size()


@by_type
def test_a_warm_memo_changes_nothing_observable(cls):
    cold, warm = FIXTURES[cls](), warmed(FIXTURES[cls]())
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    for message in (cold, warm):
        revived = pickle.loads(pickle.dumps(message))
        assert revived == cold
        assert revived.encode() == cold.encode()
        assert revived.encoded_size() == cold.encoded_size()


# -- the tagged envelope -------------------------------------------------------


@by_type
def test_envelope_round_trips_and_streams_the_same_bytes(cls):
    message = FIXTURES[cls]()
    body = message.encode()
    tag = next(tag for tag, registered in registered_types().items() if registered is cls)
    frame = encode_message(message)
    assert frame == encode_uvarint(tag) + encode_uvarint(len(body)) + body
    assert decode_message(frame) == (message, len(frame))
