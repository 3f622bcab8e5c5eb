"""Wire format: binary codec primitives, core request types, tagged envelopes.

The paper exchanges blockchain data in Protobuf; we reproduce the property
that matters for the evaluation — byte-accurate, compact, self-delimiting
message encoding — with a small length-prefixed codec.  Every protocol
message is a frozen dataclass whose field list is its wire layout;
``WireStruct`` derives ``encode``, ``decode`` and the exact wire size from
it, which feeds the network-utilization results.  As in a Protobuf
definition, a message's identity is declared with it: the ``tag=`` keyword
of its class statement (``class PrePrepare(SignedStruct, tag=10)``) is the
type tag :func:`encode_message` puts in front of its fields.
"""

from repro.wire.codec import Reader, Writer, decode_message, encode_message, registered_types
from repro.wire.messages import Request, SignedRequest

__all__ = [
    "Reader",
    "Writer",
    "Request",
    "SignedRequest",
    "decode_message",
    "encode_message",
    "registered_types",
]
