"""LinearBFT: a second primary-based backend for the ZugChain layer.

The paper notes ZugChain "can support other primary-based BFT protocols as
well" (§IV).  This backend demonstrates it: a linear-communication
protocol in the SBFT/HotStuff family, exposing the exact Table I interface
(propose / suspect / decide / new-primary) the ZugChain layer consumes.

Normal case (O(n) messages instead of PBFT's O(n²)):

1. the primary broadcasts a :class:`~repro.bft.messages.PrePrepare`;
2. replicas send a signed :class:`Vote` back *to the primary only*;
3. the primary assembles 2f+1 votes into a :class:`CommitCert` and
   broadcasts it; replicas verify the certificate and execute.

The trade-off mirrors the real systems: one extra one-way trip of latency
through the primary in exchange for linear message complexity — visible in
``benchmarks/bench_backends.py``.

Only that ordering phase lives here.  The Table I interface, checkpointing
(one per block, 2f+1 signatures — so the export protocol works unchanged on
either backend) and the view change are :class:`~repro.bft.core.ReplicaCore`'s,
shared with PBFT: every request this replica voted for rides its
``ViewChange`` as a proof and is re-proposed by the new primary.  There is no
gap fill: a replica that missed a certificate is caught up by the node's
checkpoint-triggered StateSync, at most one block later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bft.config import BftConfig
from repro.bft.core import ReplicaCore
from repro.bft.messages import Checkpoint, NewView, PrePrepare, ViewChange
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyStore
from repro.util.dispatch import KindMap
from repro.wire.codec import UNSIGNED, Hash32, Sig, SignedStruct, WireStruct

_DOMAIN_VOTE = b"linear/vote"


@dataclass(frozen=True)
class Vote(SignedStruct, tag=18):
    """Replica's signed endorsement of (view, seq, digest), sent to the primary."""

    view: int
    seq: int
    digest: Hash32
    replica_id: str
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1
    verifies_to_ingest = 1

    def signing_payload(self) -> bytes:
        return sha256(self.view.to_bytes(8, "big"), self.seq.to_bytes(8, "big"),
                      self.digest, self.replica_id.encode(), domain=_DOMAIN_VOTE)


@dataclass(frozen=True)
class CommitCert(WireStruct, tag=19):
    """2f+1 votes certifying one ordered request; broadcast by the primary."""

    view: int
    seq: int
    digest: Hash32
    votes: tuple[Vote, ...]

    @property
    def verifies_to_ingest(self) -> int:
        return len(self.votes)  # aggregates the votes' signatures, makes none of its own

    def verify(self, keystore: KeyStore, config: BftConfig) -> bool:
        signers = set()
        for vote in self.votes:
            if (vote.view, vote.seq, vote.digest) != (self.view, self.seq, self.digest):
                return False
            if not config.is_member(vote.replica_id) or not vote.verify(keystore):
                return False
            signers.add(vote.replica_id)
        return len(signers) >= config.quorum


@dataclass
class _LinearInstance:
    """Ordering state of one (view, seq)."""

    preprepare: PrePrepare | None = None
    votes: dict[str, Vote] = field(default_factory=dict)   # primary side
    certified: bool = False
    executed: bool = False

    def log_bytes(self) -> int:
        total = self.preprepare.encoded_size() if self.preprepare is not None else 0
        return total + sum(v.encoded_size() for v in self.votes.values())


class LinearBftReplica(ReplicaCore):
    """Drop-in alternative to :class:`~repro.bft.replica.PbftReplica`."""

    MESSAGE_TYPES = (PrePrepare, Vote, CommitCert, Checkpoint, ViewChange, NewView)
    KINDS = KindMap(MESSAGE_TYPES)
    INSTANCE = _LinearInstance

    def vote_is_redundant(self, message: Any) -> bool:
        kind = self.KINDS[type(message)]
        if kind is Vote or kind is CommitCert:
            if message.seq < self._next_exec:
                return True
            instance = self._instances.get(message.seq)
            return instance is not None and instance.certified
        if kind is Checkpoint:
            return message.seq <= self.last_stable_seq
        return False

    # -- dispatch ----------------------------------------------------------------------

    def on_message(self, src: str, message: Any) -> None:
        kind = self.KINDS[type(message)]
        if kind is Vote:
            self._on_vote(message)
        elif kind is CommitCert:
            self._on_commit_cert(message)
        elif kind is PrePrepare:
            self._on_preprepare(message)
        elif kind is Checkpoint:
            self._on_checkpoint(message)
        elif kind is ViewChange:
            self._on_view_change(message)
        elif kind is NewView:
            self._on_new_view(message)

    # -- ordering: vote / commit certificate ------------------------------------------------

    def _endorse(self, preprepare: PrePrepare, instance: _LinearInstance) -> None:
        vote = Vote(view=preprepare.view, seq=preprepare.seq, digest=preprepare.digest,
                    replica_id=self.id).signed(self.keypair)
        if preprepare.primary_id == self.id:
            instance.votes[self.id] = vote
            self._log_bytes += vote.encoded_size()
        else:
            self.env.send(preprepare.primary_id, vote)

    def _survives_view_change(self, instance: _LinearInstance) -> bool:
        # Votes — not certificates — must survive: the old primary may have
        # assembled a certificate (and executed) from 2f+1 votes without any
        # backup seeing it, so every voted request is re-proposed at its
        # sequence number.  Re-proposing one that never certified anywhere
        # is harmless: same (seq, digest), ordered once.
        return True

    def _on_vote(self, vote: Vote) -> None:
        if not self.is_primary or vote.view != self.view or not self._in_watermarks(vote.seq):
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(vote.replica_id) or not vote.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        instance = self._instance(vote.seq)
        if instance.preprepare is None or vote.digest != instance.preprepare.digest:
            self.stats.stale_messages += 1
            return
        if vote.replica_id not in instance.votes:
            instance.votes[vote.replica_id] = vote
            self._log_bytes += vote.encoded_size()
        if not instance.certified and len(instance.votes) >= self.config.quorum:
            cert = CommitCert(
                view=self.view, seq=vote.seq, digest=vote.digest,
                votes=tuple(sorted(instance.votes.values(), key=lambda v: v.replica_id)),
            )
            self._apply_cert(cert, instance)
            self.env.broadcast(cert)

    def _on_commit_cert(self, cert: CommitCert) -> None:
        if cert.view != self.view or not self._in_watermarks(cert.seq):
            self.stats.stale_messages += 1
            return
        # Read-only lookup until the certificate verifies: an unverified
        # cert must not allocate log state (a junk-flood would bloat
        # ``_instances`` and skew log_size accounting).
        instance = self._instances.get(cert.seq)
        if instance is not None and instance.certified:
            return
        if instance is None or instance.preprepare is None \
                or instance.preprepare.digest != cert.digest:
            # A certificate can outrun its preprepare only for Byzantine
            # primaries; without the request body we cannot execute.
            self.stats.stale_messages += 1
            return
        if not cert.verify(self.keystore, self.config):
            self.stats.invalid_signatures += 1
            return
        self._apply_cert(cert, instance)

    def _apply_cert(self, cert: CommitCert, instance: _LinearInstance) -> None:
        instance.certified = True
        if self.tracer.enabled:
            self.tracer.emit(
                "bft.commit", self.env.now(), self.id,
                view=cert.view, seq=cert.seq, digest=cert.digest.hex(),
            )
        self._pending_exec[cert.seq] = instance.preprepare.request
        self._execute_ready()
