"""PBFT protocol messages with byte-accurate encodings and signatures.

All messages exchanged by ZugChain nodes are signed with asymmetric
cryptography (§III-B).  Every type provides:

* ``signing_payload()`` — the exact bytes covered by the signature;
* ``signed(keypair)``   — a signed copy (messages are immutable);
* ``verify(keystore)``  — signature check against the registered key;
* ``write_to(writer)`` / ``decode()`` — the wire layout; ``encode()`` and
  ``encoded_size()`` come from :class:`~repro.wire.codec.WireStruct`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.crypto.hashing import DOMAIN_CHECKPOINT, sha256
from repro.crypto.keys import SIGNATURE_SIZE, KeyPair, KeyStore
from repro.wire.codec import FieldWriter, Reader, WireStruct
from repro.wire.messages import SignedRequest

_UNSIGNED = b"\x00" * SIGNATURE_SIZE

_DOMAIN_PREPREPARE = b"pbft/preprepare"
_DOMAIN_PREPARE = b"pbft/prepare"
_DOMAIN_COMMIT = b"pbft/commit"
_DOMAIN_CHECKPOINT = b"pbft/checkpoint"
_DOMAIN_VIEWCHANGE = b"pbft/viewchange"
_DOMAIN_NEWVIEW = b"pbft/newview"
_DOMAIN_DECIDE_FETCH = b"pbft/decide-fetch"
_DOMAIN_DECIDE_PROOF = b"pbft/decide-proof"


@dataclass(frozen=True)
class PrePrepare(WireStruct):
    """Primary's ordering proposal carrying the full signed request."""

    view: int
    seq: int
    request: SignedRequest
    primary_id: str
    signature: bytes = _UNSIGNED

    @cached_property
    def digest(self) -> bytes:
        return self.request.digest

    def signing_payload(self) -> bytes:
        return sha256(
            self.view.to_bytes(8, "big"),
            self.seq.to_bytes(8, "big"),
            self.digest,
            self.primary_id.encode(),
            domain=_DOMAIN_PREPREPARE,
        )

    def signed(self, keypair: KeyPair) -> "PrePrepare":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.primary_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.view)
        writer.put_uint(self.seq)
        writer.put_struct(self.request)
        writer.put_str(self.primary_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "PrePrepare":
        reader = Reader(data)
        view = reader.get_uint()
        seq = reader.get_uint()
        request = SignedRequest.decode(reader.get_bytes())
        primary_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(view=view, seq=seq, request=request, primary_id=primary_id, signature=signature)


@dataclass(frozen=True)
class _PhaseVote(WireStruct):
    """Shared shape of Prepare and Commit: a vote on (view, seq, digest)."""

    view: int
    seq: int
    digest: bytes
    replica_id: str
    signature: bytes = _UNSIGNED

    _DOMAIN = b"pbft/vote"

    def signing_payload(self) -> bytes:
        return sha256(
            self.view.to_bytes(8, "big"),
            self.seq.to_bytes(8, "big"),
            self.digest,
            self.replica_id.encode(),
            domain=self._DOMAIN,
        )

    def signed(self, keypair: KeyPair):
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.view)
        writer.put_uint(self.seq)
        writer.put_fixed(self.digest, 32)
        writer.put_str(self.replica_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes):
        reader = Reader(data)
        view = reader.get_uint()
        seq = reader.get_uint()
        digest = reader.get_fixed(32)
        replica_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(view=view, seq=seq, digest=digest, replica_id=replica_id, signature=signature)


@dataclass(frozen=True)
class Prepare(_PhaseVote):
    _DOMAIN = _DOMAIN_PREPARE


@dataclass(frozen=True)
class Commit(_PhaseVote):
    _DOMAIN = _DOMAIN_COMMIT


@dataclass(frozen=True)
class Checkpoint(WireStruct):
    """Signed application snapshot reference: one per block (§III-C).

    ``state_digest`` commits to the block hash and the chain state so a
    stable checkpoint certificate proves the block's inclusion in the
    blockchain — the export protocol's verification anchor.
    """

    seq: int
    block_height: int
    block_hash: bytes
    state_digest: bytes
    replica_id: str
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(
            self.seq.to_bytes(8, "big"),
            self.block_height.to_bytes(8, "big"),
            self.block_hash,
            self.state_digest,
            self.replica_id.encode(),
            domain=_DOMAIN_CHECKPOINT,
        )

    def signed(self, keypair: KeyPair) -> "Checkpoint":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.seq)
        writer.put_uint(self.block_height)
        writer.put_fixed(self.block_hash, 32)
        writer.put_fixed(self.state_digest, 32)
        writer.put_str(self.replica_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "Checkpoint":
        reader = Reader(data)
        seq = reader.get_uint()
        block_height = reader.get_uint()
        block_hash = reader.get_fixed(32)
        state_digest = reader.get_fixed(32)
        replica_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(seq=seq, block_height=block_height, block_hash=block_hash,
                   state_digest=state_digest, replica_id=replica_id, signature=signature)


def checkpoint_state_digest(block_hash: bytes, chain_height: int, open_request_digests: list[bytes]) -> bytes:
    """Application state digest covered by checkpoint signatures."""
    return sha256(
        block_hash,
        chain_height.to_bytes(8, "big"),
        *sorted(open_request_digests),
        domain=DOMAIN_CHECKPOINT,
    )


@dataclass(frozen=True)
class PreparedProof(WireStruct):
    """Evidence in a ViewChange that (seq, digest) was prepared in ``view``."""

    view: int
    seq: int
    digest: bytes
    request: SignedRequest

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.view)
        writer.put_uint(self.seq)
        writer.put_fixed(self.digest, 32)
        writer.put_struct(self.request)

    @classmethod
    def decode(cls, data: bytes) -> "PreparedProof":
        reader = Reader(data)
        view = reader.get_uint()
        seq = reader.get_uint()
        digest = reader.get_fixed(32)
        request = SignedRequest.decode(reader.get_bytes())
        reader.expect_end()
        return cls(view=view, seq=seq, digest=digest, request=request)


@dataclass(frozen=True)
class ViewChange(WireStruct):
    """A replica's vote to move to ``new_view``."""

    new_view: int
    last_stable_seq: int
    stable_checkpoint_digest: bytes
    prepared: tuple[PreparedProof, ...]
    replica_id: str
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(
            self.new_view.to_bytes(8, "big"),
            self.last_stable_seq.to_bytes(8, "big"),
            self.stable_checkpoint_digest,
            *[proof.encode() for proof in self.prepared],
            self.replica_id.encode(),
            domain=_DOMAIN_VIEWCHANGE,
        )

    def signed(self, keypair: KeyPair) -> "ViewChange":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.new_view)
        writer.put_uint(self.last_stable_seq)
        writer.put_fixed(self.stable_checkpoint_digest, 32)
        writer.put_structs(self.prepared)
        writer.put_str(self.replica_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "ViewChange":
        reader = Reader(data)
        new_view = reader.get_uint()
        last_stable_seq = reader.get_uint()
        stable_digest = reader.get_fixed(32)
        prepared = reader.get_list(lambda r: PreparedProof.decode(r.get_bytes()))
        replica_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(new_view=new_view, last_stable_seq=last_stable_seq,
                   stable_checkpoint_digest=stable_digest, prepared=tuple(prepared),
                   replica_id=replica_id, signature=signature)


@dataclass(frozen=True)
class NewView(WireStruct):
    """New primary's announcement: proof of 2f+1 view changes plus reproposals."""

    view: int
    view_changes: tuple[ViewChange, ...]
    preprepares: tuple[PrePrepare, ...]
    primary_id: str
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(
            self.view.to_bytes(8, "big"),
            *[vc.encode() for vc in self.view_changes],
            *[pp.encode() for pp in self.preprepares],
            self.primary_id.encode(),
            domain=_DOMAIN_NEWVIEW,
        )

    def signed(self, keypair: KeyPair) -> "NewView":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.primary_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_uint(self.view)
        writer.put_structs(self.view_changes)
        writer.put_structs(self.preprepares)
        writer.put_str(self.primary_id)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "NewView":
        reader = Reader(data)
        view = reader.get_uint()
        view_changes = reader.get_list(lambda r: ViewChange.decode(r.get_bytes()))
        preprepares = reader.get_list(lambda r: PrePrepare.decode(r.get_bytes()))
        primary_id = reader.get_str()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(view=view, view_changes=tuple(view_changes),
                   preprepares=tuple(preprepares), primary_id=primary_id,
                   signature=signature)


@dataclass(frozen=True)
class DecideFetch(WireStruct):
    """A stalled replica asks a peer to replay decided sequence numbers.

    Message loss (or a view change discarding in-flight instances) can
    leave a replica with an *execution gap*: later sequence numbers commit
    while ``first_seq`` never arrives, so in-order execution stalls and —
    once every correct node shares a gap somewhere — checkpoints can never
    reach quorum again.  The fetch asks one peer for the decided instances
    in ``[first_seq, last_seq]``; the peer answers with
    :class:`DecideProof` per sequence number it still holds.
    """

    requester_id: str
    first_seq: int
    last_seq: int
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(
            self.requester_id.encode(),
            self.first_seq.to_bytes(8, "big"),
            self.last_seq.to_bytes(8, "big"),
            domain=_DOMAIN_DECIDE_FETCH,
        )

    def signed(self, keypair: KeyPair) -> "DecideFetch":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.requester_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.requester_id)
        writer.put_uint(self.first_seq)
        writer.put_uint(self.last_seq)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "DecideFetch":
        reader = Reader(data)
        requester_id = reader.get_str()
        first_seq = reader.get_uint()
        last_seq = reader.get_uint()
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(requester_id=requester_id, first_seq=first_seq,
                   last_seq=last_seq, signature=signature)


@dataclass(frozen=True)
class DecideProof(WireStruct):
    """One decided instance replayed: the preprepare plus its commit certificate.

    The proof is view-independent: 2f+1 signed commits on one
    ``(seq, digest)`` mean at least f+1 correct replicas committed it, and
    PBFT safety guarantees no conflicting digest can ever gather the same
    quorum — so a receiver may execute the request no matter which view it
    is currently in.  The outer signature only authenticates the responder;
    validity rests entirely on the inner signatures.
    """

    replica_id: str
    preprepare: PrePrepare
    commits: tuple[Commit, ...]
    signature: bytes = _UNSIGNED

    def signing_payload(self) -> bytes:
        return sha256(
            self.replica_id.encode(),
            self.preprepare.encode(),
            *[commit.encode() for commit in self.commits],
            domain=_DOMAIN_DECIDE_PROOF,
        )

    def signed(self, keypair: KeyPair) -> "DecideProof":
        return replace(self, signature=keypair.sign(self.signing_payload()))

    def verify(self, keystore: KeyStore) -> bool:
        return keystore.verify(self.replica_id, self.signing_payload(), self.signature)

    def write_to(self, writer: FieldWriter) -> None:
        writer.put_str(self.replica_id)
        writer.put_struct(self.preprepare)
        writer.put_structs(self.commits)
        writer.put_fixed(self.signature, SIGNATURE_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "DecideProof":
        reader = Reader(data)
        replica_id = reader.get_str()
        preprepare = PrePrepare.decode(reader.get_bytes())
        commits = reader.get_list(lambda r: Commit.decode(r.get_bytes()))
        signature = reader.get_fixed(SIGNATURE_SIZE)
        reader.expect_end()
        return cls(replica_id=replica_id, preprepare=preprepare,
                   commits=tuple(commits), signature=signature)
