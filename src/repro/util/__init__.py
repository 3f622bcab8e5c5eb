"""Shared low-level utilities: errors, varint encoding, deterministic RNG streams, memoized."""

from repro.util.errors import (
    ReproError,
    CodecError,
    CryptoError,
    ChainError,
    ProtocolError,
    ConfigError,
)
from repro.util.varint import (
    encode_uvarint,
    decode_uvarint,
    uvarint_size,
    encode_bytes,
    decode_bytes,
)
from repro.util.memo import memoized
from repro.util.rng import RngRegistry

__all__ = [
    "ReproError",
    "CodecError",
    "CryptoError",
    "ChainError",
    "ProtocolError",
    "ConfigError",
    "encode_uvarint",
    "decode_uvarint",
    "uvarint_size",
    "encode_bytes",
    "decode_bytes",
    "memoized",
    "RngRegistry",
]
