"""Wire format: binary codec primitives, core request types, type registry.

The paper exchanges blockchain data in Protobuf; we reproduce the property
that matters for the evaluation — byte-accurate, compact, self-delimiting
message encoding — with a small length-prefixed codec.  Every protocol
message is a frozen dataclass whose field list is its wire layout;
``WireStruct`` derives ``encode``, ``decode`` and the exact wire size from
it, which feeds the network-utilization results.
"""

from repro.wire.codec import Reader, Writer
from repro.wire.messages import Request, SignedRequest
from repro.wire.registry import decode_message, encode_message, register_message_type

__all__ = [
    "Reader",
    "Writer",
    "Request",
    "SignedRequest",
    "decode_message",
    "encode_message",
    "register_message_type",
]
