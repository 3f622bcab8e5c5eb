"""ZugChain layer envelopes: backup broadcasts and primary forwards.

``ZugBroadcast`` is the message a backup sends to all replicas when its
soft timeout expires (Alg. 1 ln. 24); ``ZugForward`` is the relay of a
received broadcast to the primary (ln. 32), which defeats a faulty
broadcaster that omits the primary (fault case iv).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wire.codec import FieldWriter, Reader, WireStruct
from repro.wire.messages import SignedRequest


@dataclass(frozen=True)
class ZugBroadcast(WireStruct):
    """Backup's broadcast of an unlogged request to the whole group."""

    request: SignedRequest

    def write_to(self, writer: FieldWriter) -> None:
        self.request.write_to(writer)

    @classmethod
    def decode(cls, data: bytes) -> "ZugBroadcast":
        return cls(request=SignedRequest.decode(data))


@dataclass(frozen=True)
class ZugForward(WireStruct):
    """Relay of a broadcast to the primary (preserves the origin's id/signature)."""

    request: SignedRequest
    forwarder_id: str

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_struct(self.request)
        writer.put_str(self.forwarder_id)

    @classmethod
    def decode(cls, data: bytes) -> "ZugForward":
        reader = Reader(data)
        request = SignedRequest.decode(reader.get_bytes())
        forwarder_id = reader.get_str()
        reader.expect_end()
        return cls(request=request, forwarder_id=forwarder_id)
