"""PBFT protocol messages with byte-accurate encodings and signatures.

All messages exchanged by ZugChain nodes are signed with asymmetric
cryptography (§III-B).  Every type is a frozen dataclass whose field list is
its wire layout (:mod:`repro.wire.codec`), and writes by hand only:

* ``SIGNER``            — the field holding the id its signature verifies under;
* ``signing_payload()`` — the exact bytes covered by the signature;
* its cost traits where they are not zero (``signs_to_emit``, …).

``signed(keypair)`` / ``verify(keystore)`` come from
:class:`~repro.wire.codec.SignedStruct`; ``encode()``, ``encoded_size()`` and
``decode()`` from :class:`~repro.wire.codec.WireStruct`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import DOMAIN_CHECKPOINT, sha256
from repro.util.memo import memoized
from repro.wire.codec import UNSIGNED, Hash32, Sig, SignedStruct, WireStruct
from repro.wire.messages import SignedRequest, request_payload_bytes

_DOMAIN_PREPREPARE = b"pbft/preprepare"
_DOMAIN_PREPARE = b"pbft/prepare"
_DOMAIN_COMMIT = b"pbft/commit"
_DOMAIN_CHECKPOINT = b"pbft/checkpoint"
_DOMAIN_VIEWCHANGE = b"pbft/viewchange"
_DOMAIN_NEWVIEW = b"pbft/newview"
_DOMAIN_DECIDE_FETCH = b"pbft/decide-fetch"
_DOMAIN_DECIDE_PROOF = b"pbft/decide-proof"


@dataclass(frozen=True)
class PrePrepare(SignedStruct, tag=10):
    """Primary's ordering proposal carrying the full signed request."""

    view: int
    seq: int
    request: SignedRequest
    primary_id: str
    signature: Sig = UNSIGNED

    SIGNER = "primary_id"
    signs_to_emit = 2  # the signed request + the preprepare itself
    verifies_to_ingest = 2
    payload_bytes = request_payload_bytes

    @memoized
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


@dataclass(frozen=True)
class _PhaseVote(SignedStruct):
    """Shared shape of Prepare and Commit: a vote on (view, seq, digest)."""

    view: int
    seq: int
    digest: Hash32
    replica_id: str
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1
    verifies_to_ingest = 1
    _DOMAIN = b"pbft/vote"

    def signing_payload(self) -> bytes:
        return sha256(
            self.view.to_bytes(8, "big"),
            self.seq.to_bytes(8, "big"),
            self.digest,
            self.replica_id.encode(),
            domain=self._DOMAIN,
        )


@dataclass(frozen=True)
class Prepare(_PhaseVote, tag=11):
    _DOMAIN = _DOMAIN_PREPARE


@dataclass(frozen=True)
class Commit(_PhaseVote, tag=12):
    _DOMAIN = _DOMAIN_COMMIT


@dataclass(frozen=True)
class Checkpoint(SignedStruct, tag=13):
    """Signed application snapshot reference: one per block (§III-C).

    ``state_digest`` commits to the block hash and the chain state so a
    stable checkpoint certificate proves the block's inclusion in the
    blockchain — the export protocol's verification anchor.
    """

    seq: int
    block_height: int
    block_hash: Hash32
    state_digest: Hash32
    replica_id: str
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1
    verifies_to_ingest = 1

    def signing_payload(self) -> bytes:
        return sha256(
            self.seq.to_bytes(8, "big"),
            self.block_height.to_bytes(8, "big"),
            self.block_hash,
            self.state_digest,
            self.replica_id.encode(),
            domain=_DOMAIN_CHECKPOINT,
        )


def checkpoint_state_digest(block_hash: bytes, chain_height: int, open_request_digests: list[bytes]) -> bytes:
    """Application state digest covered by checkpoint signatures."""
    return sha256(
        block_hash,
        chain_height.to_bytes(8, "big"),
        *sorted(open_request_digests),
        domain=DOMAIN_CHECKPOINT,
    )


@dataclass(frozen=True)
class PreparedProof(WireStruct, tag=17):
    """Evidence in a ViewChange that (seq, digest) was prepared in ``view``."""

    view: int
    seq: int
    digest: Hash32
    request: SignedRequest


@dataclass(frozen=True)
class ViewChange(SignedStruct, tag=14):
    """A replica's vote to move to ``new_view``."""

    new_view: int
    last_stable_seq: int
    stable_checkpoint_digest: Hash32
    prepared: tuple[PreparedProof, ...]
    replica_id: str
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1

    @property
    def verifies_to_ingest(self) -> int:
        return 1 + len(self.prepared)

    def signing_payload(self) -> bytes:
        return sha256(
            self.new_view.to_bytes(8, "big"),
            self.last_stable_seq.to_bytes(8, "big"),
            self.stable_checkpoint_digest,
            *[proof.encode() for proof in self.prepared],
            self.replica_id.encode(),
            domain=_DOMAIN_VIEWCHANGE,
        )


@dataclass(frozen=True)
class NewView(SignedStruct, tag=15):
    """New primary's announcement: proof of 2f+1 view changes plus reproposals."""

    view: int
    view_changes: tuple[ViewChange, ...]
    preprepares: tuple[PrePrepare, ...]
    primary_id: str
    signature: Sig = UNSIGNED

    SIGNER = "primary_id"
    signs_to_emit = 1

    @property
    def verifies_to_ingest(self) -> int:
        # The new-view signature, each embedded view change, each reproposal.
        return 1 + len(self.view_changes) + 2 * len(self.preprepares)

    def signing_payload(self) -> bytes:
        return sha256(
            self.view.to_bytes(8, "big"),
            *[vc.encode() for vc in self.view_changes],
            *[pp.encode() for pp in self.preprepares],
            self.primary_id.encode(),
            domain=_DOMAIN_NEWVIEW,
        )


@dataclass(frozen=True)
class DecideFetch(SignedStruct, tag=58):
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
    signature: Sig = UNSIGNED

    SIGNER = "requester_id"

    def signing_payload(self) -> bytes:
        return sha256(
            self.requester_id.encode(),
            self.first_seq.to_bytes(8, "big"),
            self.last_seq.to_bytes(8, "big"),
            domain=_DOMAIN_DECIDE_FETCH,
        )


@dataclass(frozen=True)
class DecideProof(SignedStruct, tag=59):
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
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"

    def signing_payload(self) -> bytes:
        return sha256(
            self.replica_id.encode(),
            self.preprepare.encode(),
            *[commit.encode() for commit in self.commits],
            domain=_DOMAIN_DECIDE_PROOF,
        )
