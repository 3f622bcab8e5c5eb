"""Varint and length-prefixed byte-string codec tests."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    CodecError,
    decode_bytes,
    decode_uvarint,
    encode_bytes,
    encode_uvarint,
    uvarint_size,
)


def test_zero_encodes_to_single_byte():
    assert encode_uvarint(0) == b"\x00"


def test_small_values_single_byte():
    for value in (1, 17, 127):
        assert len(encode_uvarint(value)) == 1


def test_boundary_two_bytes():
    assert len(encode_uvarint(128)) == 2
    assert encode_uvarint(300) == b"\xac\x02"  # protobuf's canonical example


def test_negative_rejected():
    with pytest.raises(CodecError):
        encode_uvarint(-1)
    with pytest.raises(CodecError):
        uvarint_size(-5)


def test_truncated_varint_rejected():
    with pytest.raises(CodecError):
        decode_uvarint(b"\x80")


def test_overlong_varint_rejected():
    with pytest.raises(CodecError):
        decode_uvarint(b"\xff" * 11)


NON_CANONICAL = ["8000", "818000", "ff" * 9 + "7f"]   # 0, 1 and a 70-bit value


@pytest.mark.parametrize("raw", NON_CANONICAL)
def test_forms_the_encoder_never_emits_are_rejected(raw):
    with pytest.raises(CodecError):
        decode_uvarint(bytes.fromhex(raw))


@pytest.mark.parametrize("raw,value", [
    ("00", 0), ("7f", 127), ("8001", 128), ("ff" * 9 + "01", 2**64 - 1),
])
def test_canonical_boundaries_decode(raw, value):
    assert decode_uvarint(bytes.fromhex(raw)) == (value, len(raw) // 2)
    assert encode_uvarint(value) == bytes.fromhex(raw)


def byte_loop(value):
    """LEB128 a byte at a time: what the encoder's direct forms must equal."""
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        if not value:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def test_every_value_below_two_to_the_sixteen_matches_the_byte_loop():
    assert all(encode_uvarint(value) == byte_loop(value) for value in range(1 << 16))


def test_every_seven_bit_boundary_matches_the_byte_loop():
    for shift in range(7, 64 + 1, 7):
        for value in ((1 << shift) - 1, 1 << shift, (1 << shift) + 1):
            if value < 1 << 64:
                assert encode_uvarint(value) == byte_loop(value), value
    assert encode_uvarint(2**64 - 1) == byte_loop(2**64 - 1)


def test_a_seeded_sample_matches_the_byte_loop():
    rng = random.Random(33)
    for _ in range(20_000):
        value = rng.getrandbits(rng.randrange(1, 65))
        assert encode_uvarint(value) == byte_loop(value), value


def test_decode_with_offset():
    data = b"\x05" + encode_uvarint(1000)
    value, pos = decode_uvarint(data, offset=1)
    assert value == 1000
    assert pos == len(data)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_roundtrip(value):
    encoded = encode_uvarint(value)
    decoded, pos = decode_uvarint(encoded)
    assert decoded == value
    assert pos == len(encoded)
    assert uvarint_size(value) == len(encoded)


@given(st.binary(max_size=512))
def test_bytes_roundtrip(payload):
    encoded = encode_bytes(payload)
    decoded, pos = decode_bytes(encoded)
    assert decoded == payload
    assert pos == len(encoded)


def test_truncated_bytes_rejected():
    encoded = encode_bytes(b"hello")
    with pytest.raises(CodecError):
        decode_bytes(encoded[:-1])
