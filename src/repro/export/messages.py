"""Export protocol messages (Fig. 4).

Both sides sign: replicas hold node key pairs, data centers hold their own
pairs with public keys known to the nodes and vice versa (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bft.checkpoint import CheckpointCertificate
from repro.chain.block import Block
from repro.crypto.hashing import sha256
from repro.crypto.keys import SIGNATURE_SIZE, KeyPair, KeyStore
from repro.wire.codec import FieldWriter, Reader, WireStruct

_UNSIGNED = b"\x00" * SIGNATURE_SIZE

_DOMAIN_READ = b"export/read"
_DOMAIN_READ_REPLY = b"export/read-reply"
_DOMAIN_SYNC = b"export/sync"
_DOMAIN_DELETE = b"export/delete"
_DOMAIN_DELETE_ACK = b"export/delete-ack"
_DOMAIN_FETCH = b"export/fetch"
_DOMAIN_FETCH_REPLY = b"export/fetch-reply"
_DOMAIN_SESSION_RESUME = b"export/session-resume"


@dataclass(frozen=True)
class ReadRequest(WireStruct):
    """Step ①: a data center asks replicas for blocks since ``last_sn``.

    ``full_from`` names the randomly chosen replica that also ships the
    full blocks (step ②); the others send only their latest checkpoint.
    """

    dc_id: str
    last_sn: int
    full_from: str
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.last_sn.to_bytes(8, "big"),
                      self.full_from.encode(), domain=_DOMAIN_READ)

    def signed(self, keypair: KeyPair) -> "ReadRequest":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.dc_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.dc_id)
        writer.put_uint(self.last_sn)
        writer.put_str(self.full_from)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "ReadRequest":
        reader = Reader(data)
        dc_id = reader.get_str()
        last_sn = reader.get_uint()
        full_from = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(dc_id=dc_id, last_sn=last_sn, full_from=full_from, signature=signature)


@dataclass(frozen=True)
class ReadReply(WireStruct):
    """Step ②: a replica's latest stable checkpoint, plus blocks if designated."""

    replica_id: str
    checkpoint: CheckpointCertificate | None
    blocks: tuple[Block, ...]
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        cp = self.checkpoint.encode() if self.checkpoint else b""
        return sha256(self.replica_id.encode(), cp,
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_READ_REPLY)

    def signed(self, keypair: KeyPair) -> "ReadReply":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.replica_id)
        writer.put_struct(self.checkpoint)
        writer.put_structs(self.blocks)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "ReadReply":
        reader = Reader(data)
        replica_id = reader.get_str()
        raw_cp = reader.get_bytes()
        checkpoint = CheckpointCertificate.decode(raw_cp) if raw_cp else None
        blocks = reader.get_list(lambda r: Block.decode(r.get_bytes()))
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(replica_id=replica_id, checkpoint=checkpoint,
                   blocks=tuple(blocks), signature=signature)


@dataclass(frozen=True)
class DcSync(WireStruct):
    """Step ③: inter-data-center synchronization of the export payload."""

    dc_id: str
    checkpoint: CheckpointCertificate
    blocks: tuple[Block, ...]
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.checkpoint.encode(),
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_SYNC)

    def signed(self, keypair: KeyPair) -> "DcSync":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.dc_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.dc_id)
        writer.put_struct(self.checkpoint)
        writer.put_structs(self.blocks)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "DcSync":
        reader = Reader(data)
        dc_id = reader.get_str()
        checkpoint = CheckpointCertificate.decode(reader.get_bytes())
        blocks = reader.get_list(lambda r: Block.decode(r.get_bytes()))
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(dc_id=dc_id, checkpoint=checkpoint, blocks=tuple(blocks),
                   signature=signature)


@dataclass(frozen=True)
class DeleteRequest(WireStruct):
    """Step ⑤: a data center authorizes pruning up to a specific block."""

    dc_id: str
    upto_sn: int
    block_height: int
    block_hash: bytes
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.upto_sn.to_bytes(8, "big"),
                      self.block_height.to_bytes(8, "big"), self.block_hash,
                      domain=_DOMAIN_DELETE)

    def signed(self, keypair: KeyPair) -> "DeleteRequest":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.dc_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.dc_id)
        writer.put_uint(self.upto_sn)
        writer.put_uint(self.block_height)
        writer.put_fixed(self.block_hash, 32)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "DeleteRequest":
        reader = Reader(data)
        dc_id = reader.get_str()
        upto_sn = reader.get_uint()
        block_height = reader.get_uint()
        block_hash = reader.get_fixed(32)
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(dc_id=dc_id, upto_sn=upto_sn, block_height=block_height,
                   block_hash=block_hash, signature=signature)


@dataclass(frozen=True)
class DeleteAck(WireStruct):
    """Step ⑦: a replica confirms it pruned up to ``block_height``."""

    replica_id: str
    block_height: int
    block_hash: bytes
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(), self.block_height.to_bytes(8, "big"),
                      self.block_hash, domain=_DOMAIN_DELETE_ACK)

    def signed(self, keypair: KeyPair) -> "DeleteAck":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.replica_id)
        writer.put_uint(self.block_height)
        writer.put_fixed(self.block_hash, 32)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "DeleteAck":
        reader = Reader(data)
        replica_id = reader.get_str()
        block_height = reader.get_uint()
        block_hash = reader.get_fixed(32)
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(replica_id=replica_id, block_height=block_height,
                   block_hash=block_hash, signature=signature)


@dataclass(frozen=True)
class SessionResume(WireStruct):
    """A recovered replica announces it can serve export traffic again.

    Sent to every known data center after crash recovery: carries the
    replica's chain head so the DC can tell whether the replica is a
    useful ``full_from`` candidate yet, and lets a DC wedged mid-round on
    the crashed replica re-issue its pending read immediately instead of
    waiting out the retry backoff.
    """

    replica_id: str
    chain_height: int
    head_hash: bytes
    incarnation: int
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(), self.chain_height.to_bytes(8, "big"),
                      self.head_hash, self.incarnation.to_bytes(8, "big"),
                      domain=_DOMAIN_SESSION_RESUME)

    def signed(self, keypair: KeyPair) -> "SessionResume":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.replica_id)
        writer.put_uint(self.chain_height)
        writer.put_fixed(self.head_hash, 32)
        writer.put_uint(self.incarnation)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "SessionResume":
        reader = Reader(data)
        replica_id = reader.get_str()
        chain_height = reader.get_uint()
        head_hash = reader.get_fixed(32)
        incarnation = reader.get_uint()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(replica_id=replica_id, chain_height=chain_height,
                   head_hash=head_hash, incarnation=incarnation,
                   signature=signature)


@dataclass(frozen=True)
class BlockFetch(WireStruct):
    """Step ④ second round: request specific missing blocks from a replica."""

    dc_id: str
    first_height: int
    last_height: int
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.dc_id.encode(), self.first_height.to_bytes(8, "big"),
                      self.last_height.to_bytes(8, "big"), domain=_DOMAIN_FETCH)

    def signed(self, keypair: KeyPair) -> "BlockFetch":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.dc_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.dc_id)
        writer.put_uint(self.first_height)
        writer.put_uint(self.last_height)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "BlockFetch":
        reader = Reader(data)
        dc_id = reader.get_str()
        first_height = reader.get_uint()
        last_height = reader.get_uint()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(dc_id=dc_id, first_height=first_height,
                   last_height=last_height, signature=signature)


@dataclass(frozen=True)
class BlockFetchReply(WireStruct):
    """Blocks served for a :class:`BlockFetch`."""

    replica_id: str
    blocks: tuple[Block, ...]
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(),
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_FETCH_REPLY)

    def signed(self, keypair: KeyPair) -> "BlockFetchReply":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.replica_id)
        writer.put_structs(self.blocks)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "BlockFetchReply":
        reader = Reader(data)
        replica_id = reader.get_str()
        blocks = reader.get_list(lambda r: Block.decode(r.get_bytes()))
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(replica_id=replica_id, blocks=tuple(blocks), signature=signature)
