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
from functools import cached_property

from repro.crypto.hashing import DOMAIN_REQUEST, sha256
from repro.crypto.keys import SIGNATURE_SIZE, KeyPair, KeyStore
from repro.crypto.merkle import leaf_hash
from repro.wire.codec import FieldWriter, Reader, WireStruct


@dataclass(frozen=True)
class Request(WireStruct):
    """One bus cycle's consolidated, parsed signal data."""

    payload: bytes
    bus_cycle: int
    recv_timestamp_us: int
    source_link: str = "mvb0"

    @cached_property
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

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_bytes(self.payload)
        writer.put_uint(self.bus_cycle)
        writer.put_uint(self.recv_timestamp_us)
        writer.put_str(self.source_link)

    @classmethod
    def decode(cls, data: bytes) -> "Request":
        reader = Reader(data)
        request = cls.read_from(reader)
        reader.expect_end()
        return request

    @classmethod
    def read_from(cls, reader: Reader) -> "Request":
        payload = reader.get_bytes()
        bus_cycle = reader.get_uint()
        recv_timestamp_us = reader.get_uint()
        source_link = reader.get_str()
        return cls(
            payload=payload,
            bus_cycle=bus_cycle,
            recv_timestamp_us=recv_timestamp_us,
            source_link=source_link,
        )


@dataclass(frozen=True)
class SignedRequest(WireStruct):
    """A request authenticated by the node that submits it to consensus."""

    request: Request
    node_id: str
    signature: bytes

    @staticmethod
    def create(request: Request, node_id: str, keypair: KeyPair) -> "SignedRequest":
        payload = SignedRequest._signing_payload(request, node_id)
        return SignedRequest(request=request, node_id=node_id, signature=keypair.sign(payload))

    @staticmethod
    def _signing_payload(request: Request, node_id: str) -> bytes:
        return sha256(request.digest, node_id.encode(), domain=DOMAIN_REQUEST)

    def verify(self, keystore: KeyStore) -> bool:
        payload = self._signing_payload(self.request, self.node_id)
        return keystore.verify(self.node_id, payload, self.signature)

    @property
    def digest(self) -> bytes:
        return self.request.digest

    @cached_property
    def merkle_leaf(self) -> bytes:
        """This request's leaf hash in its block's payload Merkle tree.

        Computed on block build and again by every ``verify_payload`` on
        append; 32 bytes kept per request instead of re-encoding each time.
        """
        return leaf_hash(self.encode())

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_struct(self.request)
        writer.put_str(self.node_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "SignedRequest":
        reader = Reader(data)
        signed = cls.read_from(reader)
        reader.expect_end()
        return signed

    @classmethod
    def read_from(cls, reader: Reader) -> "SignedRequest":
        request = Request.decode(reader.get_bytes())
        node_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        return cls(request=request, node_id=node_id, signature=signature)


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
