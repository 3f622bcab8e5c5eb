"""Writer/Reader codec tests."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.util import CodecError
from repro.wire import Reader, Writer
from repro.wire.codec import WireStruct


@dataclass(frozen=True)
class Uints(WireStruct):
    items: tuple[int, ...]


@dataclass(frozen=True)
class Blobs(WireStruct):
    items: tuple[bytes, ...]


def written(*fields) -> bytes:
    """Bytes of a writer after ``(method, *args)`` calls in order."""
    writer = Writer()
    for method, *args in fields:
        getattr(writer, method)(*args)
    return writer.getvalue()


def written_list(items, put) -> bytes:
    """A count followed by each item: a ``tuple[K, ...]`` field on the wire."""
    return written(("put_uint", len(items)), *[(put, item) for item in items])


def test_uint_roundtrip():
    data = written(("put_uint", 0), ("put_uint", 300), ("put_uint", 2**40))
    reader = Reader(data)
    assert reader.get_uint() == 0
    assert reader.get_uint() == 300
    assert reader.get_uint() == 2**40
    reader.expect_end()


@pytest.mark.parametrize("raw", ["8000", "818000", "ff" * 9 + "7f"])
def test_non_canonical_uint_rejected(raw):
    # Two byte strings must not decode to one message (util.varint has the
    # boundary vectors); the reader's one-byte fast path must not bypass it.
    with pytest.raises(CodecError):
        Reader(bytes.fromhex(raw)).get_uint()
    assert Reader(bytes.fromhex("00")).get_uint() == 0
    assert Reader(bytes.fromhex("ff" * 9 + "01")).get_uint() == 2**64 - 1


def test_bool_roundtrip():
    data = written(("put_bool", True), ("put_bool", False))
    reader = Reader(data)
    assert reader.get_bool() is True
    assert reader.get_bool() is False


def test_invalid_bool_rejected():
    with pytest.raises(CodecError):
        Reader(b"\x02").get_bool()


def test_truncated_bool_rejected():
    with pytest.raises(CodecError):
        Reader(b"").get_bool()


def test_bytes_and_str_roundtrip():
    data = written(("put_bytes", b"\x00\xff"), ("put_str", "zugchain"))
    reader = Reader(data)
    assert reader.get_bytes() == b"\x00\xff"
    assert reader.get_str() == "zugchain"


def test_invalid_utf8_rejected():
    data = written(("put_bytes", b"\xff\xfe"))
    with pytest.raises(CodecError):
        Reader(data).get_str()


def test_fixed_field_roundtrip():
    data = written(("put_fixed", b"\xaa" * 32, 32))
    assert Reader(data).get_fixed(32) == b"\xaa" * 32


def test_fixed_field_wrong_size_rejected():
    with pytest.raises(CodecError):
        Writer().put_fixed(b"\xaa" * 31, 32)
    with pytest.raises(CodecError):
        Reader(b"\xaa" * 31).get_fixed(32)


def test_list_roundtrip():
    data = written_list([1, 2, 3], "put_uint")
    assert Uints.decode(data).items == (1, 2, 3)
    assert Uints((1, 2, 3)).encode() == data


def test_empty_list():
    data = written_list([], "put_uint")
    assert Uints.decode(data).items == ()


def test_forged_list_count_rejected():
    # A count far beyond the remaining bytes must not cause huge allocations.
    data = written(("put_uint", 10**9))
    with pytest.raises(CodecError, match="list count"):
        Uints.decode(data)


def test_expect_end_detects_trailing_bytes():
    reader = Reader(b"\x01\x02")
    reader.get_uint()
    with pytest.raises(CodecError):
        reader.expect_end()


def test_writer_len_matches_output():
    writer = Writer()
    writer.put_uint(300)
    writer.put_bytes(b"xyz")
    assert len(writer) == len(writer.getvalue())


@given(st.lists(st.binary(max_size=64), max_size=20))
def test_list_of_bytes_roundtrip(items):
    data = written_list(items, "put_bytes")
    assert Blobs.decode(data).items == tuple(items)
    assert Blobs(tuple(items)).encode() == data
