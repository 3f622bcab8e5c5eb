"""ZugChain layer envelopes: backup broadcasts and primary forwards.

``ZugBroadcast`` is the message a backup sends to all replicas when its
soft timeout expires (Alg. 1 ln. 24); ``ZugForward`` is the relay of a
received broadcast to the primary (ln. 32), which defeats a faulty
broadcaster that omits the primary (fault case iv).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from repro.wire.codec import Inline, WireStruct
from repro.wire.messages import SignedRequest, request_payload_bytes


@dataclass(frozen=True)
class ZugBroadcast(WireStruct, tag=30):
    """Backup's broadcast of an unlogged request to the whole group."""

    request: Annotated[SignedRequest, Inline]

    signs_to_emit = 1
    verifies_to_ingest = 1
    payload_bytes = request_payload_bytes


@dataclass(frozen=True)
class ZugForward(WireStruct, tag=31):
    """Relay of a broadcast to the primary (preserves the origin's id/signature)."""

    request: SignedRequest
    forwarder_id: str

    verifies_to_ingest = 1  # a pure relay: the origin's signature is reused, none made
    payload_bytes = request_payload_bytes
