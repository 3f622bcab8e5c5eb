"""Unsigned LEB128 varints and length-prefixed byte strings.

This is the primitive layer of the wire codec (:mod:`repro.wire`).  The paper
exchanges blockchain data in Protobuf; we reproduce the relevant property —
byte-accurate, compact, self-delimiting encoding — with the same varint
scheme Protobuf uses.
"""

from __future__ import annotations

from repro.util.errors import CodecError

_MAX_VARINT_BYTES = 10  # enough for any uint64
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]  # tags, counts and short lengths: most calls
    if value < 0:
        raise CodecError(f"cannot varint-encode negative value {value}")
    if value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))  # ports, lengths up to 16 KiB
    if value < 0x200000:
        return bytes((value & 0x7F | 0x80, value >> 7 & 0x7F | 0x80, value >> 14))
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, new_offset)``.  Raises :class:`CodecError` on truncated
    or over-long input, and on the forms :func:`encode_uvarint` never emits
    (a multi-byte varint ending in ``00``, a value of 2**64 or more), so no
    two byte strings decode to the same value.
    """
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                raise CodecError("non-canonical varint: trailing zero byte")
            if result >> 64:
                raise CodecError("varint exceeds 64 bits")
            return result, pos
        shift += 7
    raise CodecError("varint longer than 10 bytes")


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`encode_uvarint` produces for ``value``."""
    if value < 0:
        raise CodecError(f"cannot size negative varint {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode_bytes(payload: bytes) -> bytes:
    """Length-prefix ``payload`` with a varint."""
    return encode_uvarint(len(payload)) + payload


def decode_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a length-prefixed byte string; returns ``(payload, new_offset)``."""
    length, pos = decode_uvarint(data, offset)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated byte string")
    return data[pos:end], end
