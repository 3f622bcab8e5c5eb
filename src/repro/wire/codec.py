"""The wire-struct base, its field vocabulary, and the writers and reader under it.

A message type is a frozen dataclass deriving :class:`WireStruct`, and its
field list *is* its wire layout: fields are written in declaration order,
each the way its annotation says.

==============================  ==============================================
annotation                      on the wire
==============================  ==============================================
``int``                         unsigned LEB128 varint
``bool``                        one byte, ``00`` or ``01``
``bytes`` / ``str``             varint length, then the bytes (UTF-8 for str)
``Hash32`` / ``Sig``            exactly 32 / 64 bytes (``Annotated[bytes, Fixed(n)]``)
``T`` (a wire struct)           varint length, then ``T``'s fields
``T | None``                    as ``T``; ``None`` is a zero length
``tuple[K, ...]``               varint count, then each ``K``
``tuple[K1, K2]``               ``K1`` then ``K2`` in place (a pair inside a list)
``dict[K, V]``                  as ``tuple[tuple[K, V], ...]``, in insertion order
``Annotated[T, Inline]``        ``T``'s fields in place, no length prefix
``Annotated[int, Biased(n)]``   the varint of ``value + n``
==============================  ==============================================

From that one description :func:`_derive_codec` generates, once per class at
class creation, a straight-line ``_write_fields(self, writer)`` and
``_read_fields(reader)``; :class:`WireStruct` builds ``write_to``,
``encode``, ``encoded_size`` and ``decode`` on them, so the directions cannot
drift and nothing is serialized just to learn its length.  Nested structs
and lists are read in place from the one :class:`Reader`, which narrows its
bound to each length prefix and checks it was consumed exactly.

A message that crosses a process boundary declares its wire tag on the class
statement, ``class PrePrepare(SignedStruct, tag=10)``; creating the class
registers it, and :func:`encode_message`/:func:`decode_message` frame it as
``uvarint(tag) ‖ fields``.  Tags are stable API: never renumber, only append.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Annotated, Callable, Sequence

from repro.crypto.keys import SIGNATURE_SIZE, KeyPair, KeyStore
from repro.util.errors import CodecError
from repro.util.memo import memoized
from repro.util.varint import decode_uvarint, encode_uvarint, uvarint_size

_SIZE_MEMO = "_encoded_size"
_SIGNED_MEMO = "_signed_bytes"  # where ``SignedStruct._signed_bytes`` (a ``memoized``) keeps its value


@dataclass(frozen=True)
class Fixed:
    """``Annotated[bytes, Fixed(n)]``: exactly ``n`` bytes, no length prefix."""

    size: int


@dataclass(frozen=True)
class Biased:
    """``Annotated[int, Biased(n)]``: stored as ``value + n``, so ``-n`` is the least value."""

    by: int


class Inline:
    """``Annotated[T, Inline]``: struct ``T``'s fields in place, no length prefix."""


Hash32 = Annotated[bytes, Fixed(32)]
Sig = Annotated[bytes, Fixed(SIGNATURE_SIZE)]

#: Default of a signature field until :meth:`SignedStruct.signed` fills it.
UNSIGNED = b"\x00" * SIGNATURE_SIZE


class WireStruct:
    """Base of every wire struct; subclasses are frozen dataclasses.

    ``encoded_size()`` is memoised on the instance as a plain ``int`` — the
    fields are frozen, so it cannot go stale, and ``dataclasses.replace``
    copies start cold because the memo is not a field.  The encoded *bytes*
    are deliberately not kept: a chain of blocks would hold every request
    twice (DESIGN.md, "Wire structs: the field list is the layout").
    """

    #: What the simulator's CPU model charges for this message
    #: (:mod:`repro.runtime.costs`): signatures made to emit it, signatures
    #: checked to ingest it, raw request payload bytes hashed either way.
    #: Declared per class, not counted from the ``Sig`` fields — a relay
    #: signs nothing, a certificate's nested request signatures are not
    #: re-checked.
    signs_to_emit = 0
    verifies_to_ingest = 0
    payload_bytes = 0

    def __init_subclass__(cls, tag: int | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _derive_codec(cls)
        if tag is not None:
            _register(cls, tag)

    def write_to(self, writer: "FieldWriter") -> None:
        """Write this struct's fields, in wire order, without a length prefix."""
        self._write_fields(writer)

    def encode(self) -> bytes:
        writer = Writer()
        self._write_fields(writer)
        data = writer.getvalue()
        self.__dict__[_SIZE_MEMO] = len(data)
        return data

    def encoded_size(self) -> int:
        memo = self.__dict__
        size = memo.get(_SIZE_MEMO)
        if size is None:
            counter = SizeWriter()
            self._write_fields(counter)
            size = memo[_SIZE_MEMO] = counter.size
        return size

    @classmethod
    def decode(cls, data: bytes):
        """The struct whose encoding is exactly ``data``."""
        reader = Reader(data)
        value = cls._read_fields(reader)
        reader.expect_end()
        return value


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

        The child streams into this buffer instead of being encoded on the
        side.  If its size is not memoised yet, its fields go first and the
        prefix is inserted before them: one walk of the child memoises its
        size, where counting it first would walk it twice.
        """
        if child is None:
            self._buf.append(0)
            return
        memo = child.__dict__
        size = memo.get(_SIZE_MEMO)
        if size is not None:
            self.put_uint(size)
            child._write_fields(self)
            return
        buf = self._buf
        start = len(buf)
        child._write_fields(self)
        size = memo[_SIZE_MEMO] = len(buf) - start
        if size < 0x80:
            buf.insert(start, size)
        else:
            buf[start:start] = encode_uvarint(size)

    def put_structs(self, children: Sequence[WireStruct]) -> None:
        """A count followed by each child as :meth:`put_struct` writes it."""
        self.put_uint(len(children))
        for child in children:
            size = child.__dict__.get(_SIZE_MEMO)
            if size is None:
                self.put_struct(child)
            else:
                self.put_uint(size)
                child._write_fields(self)

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
    """Sequential field decoder with strict bounds checking.

    Reads never pass ``_end``: the end of the data, or — while a nested
    struct is being read in place — the end of that struct's length prefix.
    """

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._end = len(data)

    @property
    def remaining(self) -> int:
        return self._end - self._pos

    def get_uint(self) -> int:
        pos = self._pos
        if pos < self._end and self._data[pos] < 0x80:  # tags, counts, short lengths
            self._pos = pos + 1
            return self._data[pos]
        value, pos = decode_uvarint(self._data, pos)
        if pos > self._end:
            raise CodecError("truncated varint")
        self._pos = pos
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
        length = self.get_uint()
        return self.get_fixed(length)

    def get_fixed(self, size: int) -> bytes:
        pos = self._pos
        end = pos + size
        if end > self._end:
            raise CodecError(f"truncated field of {size} bytes")
        self._pos = end
        return self._data[pos:end]

    def get_str(self) -> str:
        raw = self.get_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string field") from exc

    def get_struct(self, read: Callable[[Reader], object]):
        """A nested struct behind its length prefix, read in place by ``read(self)``.

        The prefix is checked against the enclosing bound before anything is
        read, and the struct must consume it exactly.
        """
        length = self.get_uint()
        outer = self._end
        end = self._pos + length
        if end > outer:
            raise CodecError(f"nested struct of {length} bytes exceeds remaining data")
        self._end = end
        value = read(self)
        if self._pos != end:
            raise CodecError(f"{end - self._pos} trailing bytes after nested struct")
        self._end = outer
        return value

    def get_optional(self, read: Callable[[Reader], object]):
        """As :meth:`get_struct`; a zero length is ``None``."""
        if self._pos < self._end and not self._data[self._pos]:
            self._pos += 1
            return None
        return self.get_struct(read)

    def get_count(self) -> int:
        """A list's item count, checked before any item is read or allocated.

        More items than bytes remaining is a forgery: every item takes at
        least one.
        """
        count = self.get_uint()
        if count > self.remaining:
            raise CodecError(f"list count {count} exceeds remaining data")
        return count

    def get_structs(self, read: Callable[[Reader], object]) -> tuple:
        """A count, then that many structs as :meth:`get_struct` reads them."""
        get_struct = self.get_struct
        return tuple([get_struct(read) for _ in range(self.get_count())])

    def expect_end(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after message")


#: Annotations that are one writer call and one reader call.
_SCALARS = {int: "uint", bool: "bool", bytes: "bytes", str: "str"}


def _field_code(hint, value: str, names: dict) -> tuple[list[str], str]:
    """Source for one field of annotation ``hint`` held in expression ``value``.

    Returns the lines that write it to ``w`` and the expression that reads
    it back from ``r``; struct readers the expression calls go into ``names``.
    """

    def reader_of(struct: type) -> str:
        name = f"read_{struct.__name__}"
        names[name] = struct._read_fields
        return name

    def is_struct(candidate) -> bool:
        # Not isinstance(): 3.10 reports ``tuple[...]`` aliases as types too.
        return type(candidate) is type and issubclass(candidate, WireStruct)

    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        base, mark = args[:2]
        if isinstance(mark, Fixed):
            return [f"w.put_fixed({value}, {mark.size})"], f"r.get_fixed({mark.size})"
        if isinstance(mark, Biased):
            return [f"w.put_uint({value} + {mark.by})"], f"r.get_uint() - {mark.by}"
        if mark is Inline and is_struct(base):
            return [f"{value}._write_fields(w)"], f"{reader_of(base)}(r)"
    elif origin is tuple and args[-1] is Ellipsis:
        if is_struct(args[0]):
            return [f"w.put_structs({value})"], f"r.get_structs({reader_of(args[0])})"
        if value != "item":  # one loop variable: a list inside a list has no layout
            lines, read = _field_code(args[0], "item", names)
            return ([f"w.put_uint(len({value}))", f"for item in {value}:",
                     *[f"    {line}" for line in lines]],
                    f"tuple([{read} for _ in range(r.get_count())])")
    elif origin is dict:
        lines, read = _field_code(tuple[tuple[args], ...], f"{value}.items()", names)
        return lines, f"dict({read})"
    elif origin is tuple:
        parts = [_field_code(arg, f"{value}[{index}]", names)
                 for index, arg in enumerate(args)]
        return ([line for lines, _ in parts for line in lines],
                f"({', '.join(read for _, read in parts)},)")
    elif len(args) == 2 and args[1] is type(None) and is_struct(args[0]):
        return [f"w.put_struct({value})"], f"r.get_optional({reader_of(args[0])})"
    elif hint in _SCALARS:
        return [f"w.put_{_SCALARS[hint]}({value})"], f"r.get_{_SCALARS[hint]}()"
    elif is_struct(hint):
        return [f"w.put_struct({value})"], f"r.get_struct({reader_of(hint)})"
    raise TypeError(f"no wire layout for {value}: {hint!r}")


def _derive_codec(cls: type) -> None:
    """Generate ``cls``'s field writer and reader from its annotations.

    Runs from ``__init_subclass__``, before ``@dataclass`` has seen the
    class, so it reads the annotations the dataclass fields will be made
    from — in the same (base-first) order ``__init__`` takes them, which is
    what lets the reader build the instance positionally.  A class with a
    ``signature`` field also gets ``_with_signature(self, signature)``, the
    same positional construction from its own fields with that one swapped:
    what ``dataclasses.replace`` does through a field scan and a kwargs dict.
    """
    names: dict = {"cls": cls}
    hints = typing.get_type_hints(cls, include_extras=True)
    writes, reads = [], []
    for name, hint in hints.items():
        lines, read = _field_code(hint, f"self.{name}", names)
        writes += lines
        reads.append(read)
    copies = ["signature" if name == "signature" else f"self.{name}" for name in hints]
    source = "\n".join([
        "def _write_fields(self, w):",
        *[f"    {line}" for line in writes or ["pass"]],
        "def _read_fields(r):",
        f"    return cls({', '.join(reads)})",  # arguments evaluate in wire order
        "def _with_signature(self, signature):",
        f"    return cls({', '.join(copies)})",
    ])
    exec(source, names)
    cls._write_fields = names["_write_fields"]
    cls._read_fields = staticmethod(names["_read_fields"])
    if "signature" in hints:
        cls._with_signature = names["_with_signature"]


#: Every tagged class by its tag, and back; filled as the classes are created.
_CLASSES: dict[int, type] = {}
_TAGS: dict[type, int] = {}


def _register(cls: type, tag: int) -> None:
    """Give ``tag`` to ``cls``; a tag is never shared and never rebound."""
    owner = _CLASSES.get(tag)
    if owner is not None:
        raise CodecError(
            f"wire tag {tag} already belongs to {owner.__module__}.{owner.__qualname__}; "
            f"refusing to give it to {cls.__module__}.{cls.__qualname__}"
        )
    _CLASSES[tag] = cls
    _TAGS[cls] = tag


def registered_types() -> dict[int, type]:
    """Every ``tag → class`` binding of the loaded modules, in tag order."""
    return dict(sorted(_CLASSES.items()))


def encode_message(message: WireStruct) -> bytes:
    """``message`` behind its class's wire tag.

    Only the exact class is looked up: a subclass declares its own tag or
    has none.
    """
    tag = _TAGS.get(type(message))
    if tag is None:
        raise CodecError(f"message type {type(message).__name__} has no wire tag")
    writer = Writer()
    writer.put_uint(tag)
    writer.put_struct(message)
    return writer.getvalue()


def decode_message(data: bytes) -> tuple[WireStruct, int]:
    """Decode one tagged message; returns ``(message, bytes_consumed)``."""
    reader = Reader(data)
    tag = reader.get_uint()
    cls = _CLASSES.get(tag)
    if cls is None:
        raise CodecError(f"unknown wire tag {tag}")
    message = reader.get_struct(cls._read_fields)
    return message, len(data) - reader.remaining


class SignedStruct(WireStruct):
    """A struct whose ``signature`` field covers its ``signing_payload()``.

    Subclasses name the field holding the signer's id in ``SIGNER`` and
    write ``signing_payload()`` by hand: it is the security definition a
    reviewer audits, and it is not a function of the layout (a preprepare
    signs the request *digest*, a read reply signs block *hashes*).

    The bytes it returns are memoised on the instance next to the size memo
    (same rules: not a field, cold on ``dataclasses.replace``), and
    ``signed()`` hands them to the signed copy — the simulator gives every
    recipient the same frozen object, so a vote is hashed once, not once per
    sign and verify.  Only the *input* of the check is kept: every
    ``signed()`` and ``verify()`` still calls the key pair or key store, so
    no verdict outlives the call that asked for it.
    """

    #: Name of the field holding the id the signature verifies under.
    SIGNER = ""

    def signing_payload(self) -> bytes:
        """The exact bytes the signature covers."""
        raise NotImplementedError

    @memoized
    def _signed_bytes(self) -> bytes:
        return self.signing_payload()

    def signed(self, keypair: KeyPair):
        """A copy signed with ``keypair`` (messages are immutable)."""
        payload = self._signed_bytes
        copy = self._with_signature(keypair.sign(payload))
        # The signature is not part of what it covers, so the copy's payload
        # is this one's; a ``dataclasses.replace`` starts cold and hashes afresh.
        copy.__dict__[_SIGNED_MEMO] = payload
        return copy

    def verify(self, keystore: KeyStore) -> bool:
        """Whether the signature checks out under the signer's registered key."""
        return keystore.verify(getattr(self, self.SIGNER), self._signed_bytes, self.signature)
