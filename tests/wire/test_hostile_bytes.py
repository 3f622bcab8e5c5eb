"""Hostile bytes: every decoder rejects cleanly or round-trips, on a fixed seed.

Two generators feed one property (``hostile_bytes.check``): seeded mutations
of each type's golden frame, and hypothesis values built from the same field
annotations the codec is derived from.  CI explores fresh seeds with
``python tests/wire/hostile_bytes.py --seed``; the slice here is pinned.
"""

import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.bus.frames import BusCycleData, ProcessDataFrame
from repro.util import CodecError
from repro.wire.codec import Biased, Fixed, Reader, WireStruct
from repro.wire import registered_types

from tests.wire import hostile_bytes

TYPES = sorted([*registered_types().values(), ProcessDataFrame, BusCycleData],
               key=lambda cls: cls.__name__)
by_type = pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)


@by_type
def test_mutated_golden_frames_fail_cleanly_or_round_trip(cls):
    assert hostile_bytes.run(rounds=400, seed=20261003, names=[cls.__name__]) is None


def test_the_golden_frames_themselves_round_trip():
    for name, (frame, _, _) in hostile_bytes.TARGETS.items():
        hostile_bytes.check(name, frame)


@pytest.mark.parametrize("frame", ["018000", "0281800000", "01ffffffffffffffffff7f"])
def test_a_finding_names_seed_type_and_frame(frame, monkeypatch):
    # The reporting path, driven by a decoder that lets everything through
    # (these frames are non-canonical varints, which the real reader rejects).
    lenient = (lambda data: (object(), len(data)), lambda value: b"")
    monkeypatch.setitem(hostile_bytes.TARGETS, "Request", (bytes.fromhex(frame), *lenient))
    finding = hostile_bytes.run(rounds=1, seed=5, names=["Request"])
    assert finding.startswith("seed 5 round 0: Request ")
    assert "AssertionError: accepted" in finding


# -- values built from the field kinds ----------------------------------------


def values(hint) -> st.SearchStrategy:
    """Hypothesis values for one field annotation of the wire vocabulary."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        base, mark = args[:2]
        if isinstance(mark, Fixed):
            return st.binary(min_size=mark.size, max_size=mark.size)
        if isinstance(mark, Biased):
            return st.integers(-mark.by, 2**64 - 1 - mark.by)
        return values(base)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(values(args[0]), max_size=2).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values, args))
    if args:
        return st.none() | values(args[0])
    if issubclass(hint, WireStruct):
        fields = typing.get_type_hints(hint, include_extras=True)
        return st.builds(hint, **{name: values(field) for name, field in fields.items()})
    return {int: st.integers(0, 2**64 - 1), bool: st.booleans(),
            bytes: st.binary(max_size=48), str: st.text(max_size=12)}[hint]


@by_type
def test_generated_values_round_trip_and_survive_mutation(cls):
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(values(cls), st.integers(0, 2**32))
    def property_holds(message, seed):
        data = message.encode()
        assert message.encoded_size() == len(data)
        decoded = cls.decode(data)
        assert decoded == message and decoded.encode() == data
        try:
            mutant = cls.decode(hostile_bytes.mutate(random.Random(seed), data))
        except CodecError:
            return
        assert cls.decode(mutant.encode()) == mutant

    property_holds()


# -- forged prefixes fail before anything is read or allocated --------------------


def never(reader):
    pytest.fail("read past a forged prefix")


def test_struct_length_beyond_the_data_is_rejected_before_reading():
    with pytest.raises(CodecError):
        Reader(b"\x05abc").get_struct(never)


def test_struct_length_beyond_its_enclosing_struct_is_rejected():
    # Outer struct of 2 bytes; the inner prefix claims 3, which the data has
    # but the enclosing struct does not.
    with pytest.raises(CodecError):
        Reader(b"\x02\x03abcdef").get_struct(lambda reader: reader.get_struct(never))


def test_fields_cannot_read_past_their_enclosing_struct():
    for read in (Reader.get_uint, Reader.get_bool, Reader.get_bytes,
                 lambda reader: reader.get_fixed(1)):
        with pytest.raises(CodecError):
            Reader(b"\x00\x01\x01").get_struct(read)


@pytest.mark.parametrize("count", [4, 10**9, 2**63])
def test_list_count_beyond_the_remaining_bytes_is_rejected_before_reading(count):
    from repro.util.varint import encode_uvarint

    with pytest.raises(CodecError):
        Reader(encode_uvarint(count) + b"\x00\x00\x00").get_structs(never)


def test_nested_struct_must_be_consumed_exactly():
    with pytest.raises(CodecError, match="trailing"):
        Reader(b"\x02\x07\x07").get_struct(Reader.get_uint)
