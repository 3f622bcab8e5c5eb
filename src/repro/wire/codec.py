"""Binary writers/reader over the varint primitives, and the wire-struct base.

Every message type lists its fields once, in ``write_to(writer)``, one line
per field and symmetric with its ``decode()`` — so a reviewer can audit
that signing payloads cover exactly the intended fields.  :class:`WireStruct`
derives both ``encode()`` and ``encoded_size()`` from that one listing by
running it against a :class:`Writer` (bytes) or a :class:`SizeWriter`
(integers only), so the two cannot drift and nothing is serialized just to
learn its length.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.errors import CodecError
from repro.util.varint import decode_uvarint, encode_uvarint, uvarint_size

_SIZE_MEMO = "_encoded_size"


class WireStruct:
    """Base of every wire struct; subclasses are frozen dataclasses.

    ``encoded_size()`` is memoised on the instance as a plain ``int`` — the
    fields are frozen, so it cannot go stale, and ``dataclasses.replace``
    copies start cold because the memo is not a field.  The encoded *bytes*
    are deliberately not kept: a chain of blocks would hold every request
    twice (DESIGN.md, "Wire structs: one field listing, two writers").
    """

    def write_to(self, writer: "FieldWriter") -> None:
        """Write this struct's fields, in wire order, without a length prefix."""
        raise NotImplementedError

    def encode(self) -> bytes:
        writer = Writer()
        self.write_to(writer)
        data = writer.getvalue()
        self.__dict__[_SIZE_MEMO] = len(data)
        return data

    def encoded_size(self) -> int:
        memo = self.__dict__
        size = memo.get(_SIZE_MEMO)
        if size is None:
            counter = SizeWriter()
            self.write_to(counter)
            size = memo[_SIZE_MEMO] = counter.size
        return size


class Writer:
    """Appends encoded fields to one byte buffer."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def put_uint(self, value: int) -> None:
        if 0 <= value < 0x80:
            self._buf.append(value)
        else:
            self._buf += encode_uvarint(value)

    def put_bool(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def put_bytes(self, payload: bytes) -> None:
        self.put_uint(len(payload))
        self._buf += payload

    def put_fixed(self, payload: bytes, size: int) -> None:
        """Write exactly ``size`` bytes (hashes, signatures, keys)."""
        if len(payload) != size:
            raise CodecError(f"fixed field expected {size} bytes, got {len(payload)}")
        self._buf += payload

    def put_str(self, text: str) -> None:
        self.put_bytes(text.encode("utf-8"))

    def put_struct(self, child: WireStruct | None) -> None:
        """A nested struct behind its length prefix; ``None`` is zero length.

        The prefix comes from the child's (memoised) size, so the child
        streams into this buffer instead of being encoded on the side.
        """
        if child is None:
            self._buf.append(0)
            return
        self.put_uint(child.encoded_size())
        child.write_to(self)

    def put_structs(self, children: Sequence[WireStruct]) -> None:
        """A count followed by each child as :meth:`put_struct` writes it."""
        self.put_uint(len(children))
        for child in children:
            self.put_uint(child.encoded_size())
            child.write_to(self)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class SizeWriter:
    """The :class:`Writer` interface, adding up lengths instead of bytes."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = 0

    def put_uint(self, value: int) -> None:
        self.size += 1 if 0 <= value < 0x80 else uvarint_size(value)

    def put_bool(self, value: bool) -> None:
        self.size += 1

    def put_bytes(self, payload: bytes) -> None:
        length = len(payload)
        self.size += length + (1 if length < 0x80 else uvarint_size(length))

    def put_fixed(self, payload: bytes, size: int) -> None:
        if len(payload) != size:
            raise CodecError(f"fixed field expected {size} bytes, got {len(payload)}")
        self.size += size

    def put_str(self, text: str) -> None:
        length = len(text) if text.isascii() else len(text.encode("utf-8"))
        self.size += length + (1 if length < 0x80 else uvarint_size(length))

    def put_struct(self, child: WireStruct | None) -> None:
        length = 0 if child is None else child.encoded_size()
        self.size += length + (1 if length < 0x80 else uvarint_size(length))

    def put_structs(self, children: Sequence[WireStruct]) -> None:
        self.put_uint(len(children))
        for child in children:
            length = child.encoded_size()
            self.size += length + (1 if length < 0x80 else uvarint_size(length))


#: What a ``write_to`` receives: either writer, it must not care which.
FieldWriter = Writer | SizeWriter


class Reader:
    """Sequential field decoder with strict bounds checking."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def get_uint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def get_bool(self) -> bool:
        if self.remaining < 1:
            raise CodecError("truncated bool")
        byte = self._data[self._pos]
        self._pos += 1
        if byte not in (0, 1):
            raise CodecError(f"invalid bool byte {byte:#x}")
        return byte == 1

    def get_bytes(self) -> bytes:
        length, pos = decode_uvarint(self._data, self._pos)
        end = pos + length
        if end > len(self._data):
            raise CodecError("truncated byte field")
        self._pos = end
        return self._data[pos:end]

    def get_fixed(self, size: int) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise CodecError(f"truncated fixed field of {size} bytes")
        out = self._data[self._pos:end]
        self._pos = end
        return out

    def get_str(self) -> str:
        raw = self.get_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string field") from exc

    def get_list(self, get_item) -> list:
        count = self.get_uint()
        # Guard against forged counts that would allocate unboundedly.
        if count > max(self.remaining, 64):
            raise CodecError(f"list count {count} exceeds remaining data")
        return [get_item(self) for _ in range(count)]

    def expect_end(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after message")
