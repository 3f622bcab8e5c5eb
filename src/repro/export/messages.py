"""Export protocol messages (Fig. 4).

Both sides sign: replicas hold node key pairs, data centers hold their own
pairs with public keys known to the nodes and vice versa (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bft.checkpoint import CheckpointCertificate
from repro.chain.block import Block
from repro.crypto.hashing import sha256
from repro.wire.codec import UNSIGNED, Hash32, Sig, SignedStruct

_DOMAIN_READ = b"export/read"
_DOMAIN_READ_REPLY = b"export/read-reply"
_DOMAIN_SYNC = b"export/sync"
_DOMAIN_DELETE = b"export/delete"
_DOMAIN_DELETE_ACK = b"export/delete-ack"
_DOMAIN_FETCH = b"export/fetch"
_DOMAIN_FETCH_REPLY = b"export/fetch-reply"
_DOMAIN_SESSION_RESUME = b"export/session-resume"


@dataclass(frozen=True)
class ReadRequest(SignedStruct, tag=50):
    """Step ①: a data center asks replicas for blocks since ``last_sn``.

    ``full_from`` names the randomly chosen replica that also ships the
    full blocks (step ②); the others send only their latest checkpoint.
    """

    dc_id: str
    last_sn: int
    full_from: str
    signature: Sig = UNSIGNED

    SIGNER = "dc_id"

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.last_sn.to_bytes(8, "big"),
                      self.full_from.encode(), domain=_DOMAIN_READ)


@dataclass(frozen=True)
class ReadReply(SignedStruct, tag=51):
    """Step ②: a replica's latest stable checkpoint, plus blocks if designated."""

    replica_id: str
    checkpoint: CheckpointCertificate | None
    blocks: tuple[Block, ...]
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"

    def signing_payload(self) -> bytes:
        cp = self.checkpoint.encode() if self.checkpoint else b""
        return sha256(self.replica_id.encode(), cp,
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_READ_REPLY)


@dataclass(frozen=True)
class DcSync(SignedStruct, tag=52):
    """Step ③: inter-data-center synchronization of the export payload."""

    dc_id: str
    checkpoint: CheckpointCertificate
    blocks: tuple[Block, ...]
    signature: Sig = UNSIGNED

    SIGNER = "dc_id"

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.checkpoint.encode(),
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_SYNC)


@dataclass(frozen=True)
class DeleteRequest(SignedStruct, tag=53):
    """Step ⑤: a data center authorizes pruning up to a specific block."""

    dc_id: str
    upto_sn: int
    block_height: int
    block_hash: Hash32
    signature: Sig = UNSIGNED

    SIGNER = "dc_id"

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.upto_sn.to_bytes(8, "big"),
                      self.block_height.to_bytes(8, "big"), self.block_hash,
                      domain=_DOMAIN_DELETE)


@dataclass(frozen=True)
class DeleteAck(SignedStruct, tag=54):
    """Step ⑦: a replica confirms it pruned up to ``block_height``."""

    replica_id: str
    block_height: int
    block_hash: Hash32
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(), self.block_height.to_bytes(8, "big"),
                      self.block_hash, domain=_DOMAIN_DELETE_ACK)


@dataclass(frozen=True)
class SessionResume(SignedStruct, tag=57):
    """A recovered replica announces it can serve export traffic again.

    Sent to every known data center after crash recovery: carries the
    replica's chain head so the DC can tell whether the replica is a
    useful ``full_from`` candidate yet, and lets a DC wedged mid-round on
    the crashed replica re-issue its pending read immediately instead of
    waiting out the retry backoff.
    """

    replica_id: str
    chain_height: int
    head_hash: Hash32
    incarnation: int
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(), self.chain_height.to_bytes(8, "big"),
                      self.head_hash, self.incarnation.to_bytes(8, "big"),
                      domain=_DOMAIN_SESSION_RESUME)


@dataclass(frozen=True)
class BlockFetch(SignedStruct, tag=55):
    """Step ④ second round: request specific missing blocks from a replica."""

    dc_id: str
    first_height: int
    last_height: int
    signature: Sig = UNSIGNED

    SIGNER = "dc_id"

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.first_height.to_bytes(8, "big"),
                      self.last_height.to_bytes(8, "big"), domain=_DOMAIN_FETCH)


@dataclass(frozen=True)
class BlockFetchReply(SignedStruct, tag=56):
    """Blocks served for a :class:`BlockFetch`."""

    replica_id: str
    blocks: tuple[Block, ...]
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(),
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_FETCH_REPLY)
