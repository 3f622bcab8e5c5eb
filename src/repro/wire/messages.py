"""Core request types shared by the bus, consensus, and chain layers.

A :class:`Request` is the unit the BFT layer orders: all signals read from
the bus in one cycle, consolidated into one payload (§III-B "All signals
transmitted in a bus cycle are consolidated into one BFT request").  Its
identity for duplicate filtering is the payload digest — ZugChain filters
on *content*, unlike PBFT which dedups on (client id, sequence number).

A :class:`SignedRequest` wraps a request with the id and signature of the
node that proposes or broadcasts it (Alg. 1 ``sign(req, id)``), so every
logged entry carries the identity of a node that actually received it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import DOMAIN_REQUEST, sha256
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import leaf_hash
from repro.util.memo import memoized
from repro.wire.codec import Sig, SignedStruct, WireStruct


@dataclass(frozen=True)
class Request(WireStruct, tag=1):
    """One bus cycle's consolidated, parsed signal data."""

    payload: bytes
    bus_cycle: int
    recv_timestamp_us: int
    source_link: str = "mvb0"

    @memoized
    def digest(self) -> bytes:
        """Content digest used for duplicate filtering.

        Deliberately excludes ``recv_timestamp_us``: two nodes reading the
        same telegram observe slightly different local times, and filtering
        must still identify their payloads as duplicates.  The bus cycle
        number and source link are part of the content — the same signal
        values in different cycles are distinct events.
        """
        return sha256(
            self.payload,
            self.bus_cycle.to_bytes(8, "big"),
            self.source_link.encode(),
            domain=DOMAIN_REQUEST,
        )


@dataclass(frozen=True)
class SignedRequest(SignedStruct, tag=2):
    """A request authenticated by the node that submits it to consensus."""

    request: Request
    node_id: str
    signature: Sig

    SIGNER = "node_id"

    @staticmethod
    def create(request: Request, node_id: str, keypair: KeyPair) -> "SignedRequest":
        payload = SignedRequest._signing_payload(request, node_id)
        return SignedRequest(request=request, node_id=node_id, signature=keypair.sign(payload))

    @staticmethod
    def _signing_payload(request: Request, node_id: str) -> bytes:
        return sha256(request.digest, node_id.encode(), domain=DOMAIN_REQUEST)

    def signing_payload(self) -> bytes:
        return self._signing_payload(self.request, self.node_id)

    @property
    def digest(self) -> bytes:
        return self.request.digest

    @memoized
    def merkle_leaf(self) -> bytes:
        """This request's leaf hash in its block's payload Merkle tree.

        Read on block build and by the first ``verify_payload`` of a block
        that did not come from ``build_block`` (decoded, replaced or
        hand-built), which then keeps the root itself; also by audit
        proofs.  32 bytes kept per request instead of re-encoding each time.
        """
        return leaf_hash(self.encode())


#: The ``payload_bytes`` cost trait of a struct with a ``request:
#: SignedRequest`` field: it carries, and so hashes, that request's payload.
request_payload_bytes = property(lambda self: len(self.request.request.payload))


#: Reserved source link marking a no-op filler request.  A new primary uses
#: these to plug sequence-number holes left by a view change (classic PBFT
#: assigns "null requests" to gaps so in-order execution never stalls on a
#: number nobody proposed).  The communication layer drops them on decide:
#: they consume a sequence number but never reach the blockchain.
NULL_SOURCE_LINK = "bft/null"


def null_request(seq: int) -> Request:
    """A deterministic no-op request filling sequence number ``seq``.

    The sequence number doubles as the bus-cycle field so each filler has
    a distinct content digest — identical digests would trip the layer's
    duplicate-primary detection.
    """
    return Request(
        payload=b"", bus_cycle=seq, recv_timestamp_us=0,
        source_link=NULL_SOURCE_LINK,
    )


def is_null_request(request: Request) -> bool:
    return request.source_link == NULL_SOURCE_LINK and not request.payload
