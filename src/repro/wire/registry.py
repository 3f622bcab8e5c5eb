"""Self-describing message envelopes: type tag + body.

Used wherever messages cross a process boundary for real — disk
persistence, export payload framing, and transport round-trip tests.
Each message module registers its types at import time.

Registration is strict: a tag permanently belongs to the first class
registered under it, and a class to its first tag.  Re-registering the
same ``(tag, cls)`` pair is an idempotent no-op (modules may be imported
through several paths); any conflicting registration raises
:class:`~repro.util.errors.CodecError` instead of silently shadowing the
earlier binding — silent shadowing is exactly the class of bug zuglint's
PROTO002 rule exists to catch statically.
"""

from __future__ import annotations

from repro.util.errors import CodecError
from repro.wire.codec import Reader, Writer

_CLASSES: dict[int, type] = {}
_TAGS: dict[type, int] = {}


def register_message_type(tag: int, cls: type) -> None:
    """Register ``cls`` (a :class:`~repro.wire.codec.WireStruct`) under wire ``tag``.

    Raises :class:`CodecError` if ``tag`` is already bound to a different
    class, or ``cls`` is already bound to a different tag.
    """
    registered = _CLASSES.get(tag)
    if registered is not None and registered is not cls:
        raise CodecError(
            f"wire tag {tag} already registered for {registered.__name__}; "
            f"refusing to rebind it to {cls.__name__}"
        )
    existing_tag = _TAGS.get(cls)
    if existing_tag is not None and existing_tag != tag:
        raise CodecError(
            f"message type {cls.__name__} already registered under tag "
            f"{existing_tag}; refusing to also register it under {tag}"
        )
    _CLASSES[tag] = cls
    _TAGS[cls] = tag


def registered_types() -> dict[int, type]:
    """Snapshot of every ``tag → class`` binding, for introspection.

    Consumed by the dynamic round-trip test (every registered type must
    encode/decode through the envelope) and available to tooling.
    """
    return dict(_CLASSES)


def encode_message(message: object) -> bytes:
    """Encode ``message`` with its registered type tag prefix."""
    tag = _TAGS.get(type(message))
    if tag is None:
        raise CodecError(f"message type {type(message).__name__} not registered")
    writer = Writer()
    writer.put_uint(tag)
    writer.put_struct(message)  # type: ignore[arg-type]
    return writer.getvalue()


def decode_message(data: bytes) -> tuple[object, int]:
    """Decode one tagged message; returns ``(message, bytes_consumed)``."""
    reader = Reader(data)
    tag = reader.get_uint()
    cls = _CLASSES.get(tag)
    if cls is None:
        raise CodecError(f"unknown wire tag {tag}")
    message = reader.get_struct(cls._read_fields)
    return message, len(data) - reader.remaining
