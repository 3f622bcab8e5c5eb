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

View changes reuse the PBFT messages: certified-but-unexecuted requests
ride along as prepared proofs and are re-proposed by the new primary.
Checkpointing (one per block, 2f+1 signatures) is identical, so the export
protocol works unchanged on top of either backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bft.checkpoint import CheckpointCertificate, CheckpointCollector
from repro.bft.config import BftConfig
from repro.bft.env import Env
from repro.bft.messages import (
    Checkpoint,
    NewView,
    PrePrepare,
    PreparedProof,
    ViewChange,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, KeyStore
from repro.bft.replica import ReplicaStats
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.dispatch import KindMap
from repro.wire.codec import UNSIGNED, Hash32, Sig, SignedStruct, WireStruct
from repro.wire.messages import SignedRequest

_DOMAIN_VOTE = b"linear/vote"


@dataclass(frozen=True)
class Vote(SignedStruct):
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
class CommitCert(WireStruct):
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
    preprepare: PrePrepare | None = None
    votes: dict[str, Vote] = field(default_factory=dict)   # primary side
    certified: bool = False
    executed: bool = False


class LinearBftReplica:
    """Drop-in alternative to :class:`~repro.bft.replica.PbftReplica`."""

    #: Message types this backend consumes (used by node-level dispatch).
    MESSAGE_TYPES = (PrePrepare, Vote, CommitCert, Checkpoint, ViewChange, NewView)
    #: As :attr:`PbftReplica.KINDS`: the entry of ``MESSAGE_TYPES`` a message is.
    KINDS = KindMap(MESSAGE_TYPES)

    def __init__(
        self,
        env: Env,
        config: BftConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        on_decide: Callable[[SignedRequest, int], None],
        on_new_primary: Callable[[str], None] | None = None,
        on_stable_checkpoint: Callable[[CheckpointCertificate], None] | None = None,
        on_preprepare_accepted: Callable[[bytes], None] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.keypair = keypair
        self.keystore = keystore
        self._on_decide = on_decide
        self._on_new_primary = on_new_primary or (lambda pid: None)
        self._on_stable_checkpoint = on_stable_checkpoint or (lambda cert: None)
        self._on_preprepare_accepted = on_preprepare_accepted or (lambda digest: None)
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self.id = env.node_id
        self.view = 0
        self.in_view_change = False
        self._next_seq = 1
        self._next_exec = 1
        self.last_stable_seq = 0
        self._instances: dict[int, _LinearInstance] = {}
        self._pending_exec: dict[int, SignedRequest] = {}
        self._checkpoints = CheckpointCollector(config, keystore)
        self._view_changes: dict[int, dict[str, ViewChange]] = {}
        self._vc_timer = None
        self._log_bytes = 0
        self.stats = ReplicaStats()

    # -- role helpers -------------------------------------------------------------

    @property
    def primary_id(self) -> str:
        return self.config.primary_of_view(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary_id == self.id

    def log_size_bytes(self) -> int:
        return self._log_bytes

    def latest_stable_checkpoint(self) -> CheckpointCertificate | None:
        return self._checkpoints.latest_stable()

    def stable_checkpoint(self, seq: int) -> CheckpointCertificate | None:
        return self._checkpoints.stable_at(seq)

    def stable_checkpoint_seqs(self) -> list[int]:
        return self._checkpoints.stable_seqs()

    def discard_checkpoints_below(self, seq: int) -> None:
        self._checkpoints.discard_below(seq)

    def fast_forward(self, certificate: CheckpointCertificate) -> None:
        """Adopt a verified stable checkpoint after state transfer."""
        # Idempotent: the watermark may already have advanced via a live
        # quorum of peer checkpoints — the execution pointer still needs
        # moving once the state transfer delivered the blocks.
        self._checkpoints.install(certificate)
        self.last_stable_seq = max(self.last_stable_seq, certificate.seq)
        self._next_exec = max(self._next_exec, certificate.seq + 1)
        self._next_seq = max(self._next_seq, certificate.seq + 1)
        self._pending_exec = {s: r for s, r in self._pending_exec.items()
                              if s > certificate.seq}
        for seq in [s for s in self._instances if s <= certificate.seq]:
            del self._instances[seq]
        self._execute_ready()

    def adopt_view(self, view: int) -> None:
        """Adopt a higher view learned out of band (state transfer).

        Same contract as :meth:`PbftReplica.adopt_view`: strictly monotonic,
        liveness-only — a recovering replica stops suspecting a primary the
        rest of the cluster deposed while it was down.
        """
        if view <= self.view:
            return
        if self.in_view_change and self.tracer.enabled:
            self.tracer.emit("bft.viewchange.end", self.env.now(), self.id,
                             view=view)
        self.view = view
        self.in_view_change = False
        if self._vc_timer is not None:
            self._vc_timer.cancel()
            self._vc_timer = None
        self._view_changes = {
            v: votes for v, votes in self._view_changes.items() if v > view
        }
        self._on_new_primary(self.primary_id)

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

    # -- Table I downcalls -----------------------------------------------------------

    def propose(self, request: SignedRequest) -> bool:
        if not self.is_primary or self.in_view_change:
            return False
        seq = max(self._next_seq, self.last_stable_seq + 1)
        if seq > self.last_stable_seq + self.config.watermark_window:
            return False
        self._next_seq = seq + 1
        preprepare = PrePrepare(
            view=self.view, seq=seq, request=request, primary_id=self.id
        ).signed(self.keypair)
        instance = self._instance(seq)
        instance.preprepare = preprepare
        self._log_bytes += preprepare.encoded_size()
        if self.tracer.enabled:
            self.tracer.emit(
                "bft.preprepare", self.env.now(), self.id,
                view=self.view, seq=seq, digest=preprepare.digest.hex(),
            )
        # The primary's own vote.
        self._on_preprepare_accepted(preprepare.digest)
        vote = Vote(view=self.view, seq=seq, digest=preprepare.digest,
                    replica_id=self.id).signed(self.keypair)
        instance.votes[self.id] = vote
        self.stats.proposals += 1
        self.env.broadcast(preprepare)
        return True

    def suspect(self) -> None:
        self._start_view_change(self.view + 1)

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

    # -- normal case -----------------------------------------------------------------------

    def _instance(self, seq: int) -> _LinearInstance:
        """The ordering state of ``seq``, created on first use."""
        instance = self._instances.get(seq)
        if instance is None:
            instance = self._instances[seq] = _LinearInstance()
        return instance

    def _in_watermarks(self, seq: int) -> bool:
        return self.last_stable_seq < seq <= self.last_stable_seq + self.config.watermark_window

    def _on_preprepare(self, preprepare: PrePrepare) -> None:
        if self.in_view_change or preprepare.view != self.view:
            self.stats.stale_messages += 1
            return
        if preprepare.primary_id != self.primary_id or not self._in_watermarks(preprepare.seq):
            self.stats.stale_messages += 1
            return
        if not preprepare.verify(self.keystore) or not preprepare.request.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        instance = self._instance(preprepare.seq)
        if instance.preprepare is not None:
            if instance.preprepare.digest != preprepare.digest:
                self.stats.conflicting_preprepares += 1
                self.suspect()
            return
        instance.preprepare = preprepare
        self._log_bytes += preprepare.encoded_size()
        if self.tracer.enabled:
            self.tracer.emit(
                "bft.preprepare", self.env.now(), self.id,
                view=preprepare.view, seq=preprepare.seq,
                digest=preprepare.digest.hex(),
            )
        self._on_preprepare_accepted(preprepare.digest)
        vote = Vote(view=self.view, seq=preprepare.seq, digest=preprepare.digest,
                    replica_id=self.id).signed(self.keypair)
        self.env.send(self.primary_id, vote)

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
        self._log_bytes += cert.encoded_size()
        if self.tracer.enabled:
            self.tracer.emit(
                "bft.commit", self.env.now(), self.id,
                view=cert.view, seq=cert.seq, digest=cert.digest.hex(),
            )
        self._pending_exec[cert.seq] = instance.preprepare.request
        self._execute_ready()

    def _execute_ready(self) -> None:
        while self._next_exec in self._pending_exec:
            seq = self._next_exec
            request = self._pending_exec.pop(seq)
            instance = self._instances.get(seq)
            if instance is not None:
                instance.executed = True
            self._next_exec = seq + 1
            self.stats.decided += 1
            self._on_decide(request, seq)

    # -- checkpointing (identical contract to PBFT) ---------------------------------------------

    def record_checkpoint(self, seq: int, block_height: int, block_hash: bytes,
                          state_digest: bytes) -> None:
        checkpoint = Checkpoint(
            seq=seq, block_height=block_height, block_hash=block_hash,
            state_digest=state_digest, replica_id=self.id,
        ).signed(self.keypair)
        self._handle_checkpoint(checkpoint)
        self.env.broadcast(checkpoint)

    def _on_checkpoint(self, checkpoint: Checkpoint) -> None:
        if not self.config.is_member(checkpoint.replica_id):
            self.stats.stale_messages += 1
            return
        self._handle_checkpoint(checkpoint)

    def _handle_checkpoint(self, checkpoint: Checkpoint) -> None:
        certificate = self._checkpoints.add(checkpoint)
        if certificate is None:
            return
        self.stats.checkpoints_stable += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "ckpt.stable", self.env.now(), self.id,
                seq=certificate.seq, block_height=certificate.block_height,
            )
        if self.in_view_change and certificate.seq > self.last_stable_seq:
            # 2f+1 replicas signed state beyond our suspicion point: the
            # group is live in the current view — abandon the view change
            # (a wedged minority suspecter must not ignore progress forever).
            self.in_view_change = False
            if self._vc_timer is not None:
                self._vc_timer.cancel()
                self._vc_timer = None
        if certificate.seq > self.last_stable_seq:
            self.last_stable_seq = certificate.seq
            for seq in [s for s in self._instances if s <= certificate.seq]:
                del self._instances[seq]
            self._log_bytes = max(0, self._log_bytes // 2)  # coarse GC accounting
        self._on_stable_checkpoint(certificate)

    # -- view change (PBFT-style, reusing its messages) ---------------------------------------------

    def _voted_proofs(self) -> tuple[PreparedProof, ...]:
        """Requests this replica voted for but has not executed.

        Votes — not certificates — must survive the view change: the old
        primary may have assembled a certificate (and executed) from 2f+1
        votes without any backup seeing it, so every voted request is
        re-proposed at its sequence number.  Re-proposing a request that
        never certified anywhere is harmless: same (seq, digest), ordered
        once.
        """
        proofs = []
        for seq in sorted(self._instances):
            instance = self._instances[seq]
            if not instance.executed and instance.preprepare is not None:
                proofs.append(PreparedProof(
                    view=instance.preprepare.view, seq=seq,
                    digest=instance.preprepare.digest,
                    request=instance.preprepare.request,
                ))
        return tuple(proofs)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        if any(self.id in votes for view, votes in self._view_changes.items()
               if view >= new_view):
            return
        self.in_view_change = True
        if self.tracer.enabled:
            self.tracer.emit("bft.viewchange.start", self.env.now(), self.id,
                             new_view=new_view)
        stable = self._checkpoints.latest_stable()
        view_change = ViewChange(
            new_view=new_view,
            last_stable_seq=self.last_stable_seq,
            stable_checkpoint_digest=stable.state_digest if stable else b"\x00" * 32,
            prepared=self._voted_proofs(),
            replica_id=self.id,
        ).signed(self.keypair)
        self._view_changes.setdefault(new_view, {})[self.id] = view_change
        self.env.broadcast(view_change)
        if self._vc_timer is not None:
            self._vc_timer.cancel()
        self._vc_timer = self.env.set_timer(
            self.config.view_change_timeout_s,
            lambda: self.in_view_change and self._start_view_change(new_view + 1),
        )
        self._maybe_assume_leadership(new_view)

    def _on_view_change(self, view_change: ViewChange) -> None:
        if view_change.new_view <= self.view:
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(view_change.replica_id) or not view_change.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        votes = self._view_changes.setdefault(view_change.new_view, {})
        votes[view_change.replica_id] = view_change
        if not self.in_view_change and len(votes) >= self.config.f + 1:
            self._start_view_change(view_change.new_view)
        self._maybe_assume_leadership(view_change.new_view)

    def _maybe_assume_leadership(self, new_view: int) -> None:
        if self.config.primary_of_view(new_view) != self.id or new_view <= self.view:
            return
        votes = self._view_changes.get(new_view, {})
        if len(votes) < self.config.quorum:
            return
        view_changes = tuple(sorted(votes.values(), key=lambda vc: vc.replica_id))
        min_stable = max(vc.last_stable_seq for vc in view_changes)
        best: dict[int, PreparedProof] = {}
        for vc in view_changes:
            for proof in vc.prepared:
                if proof.seq <= min_stable:
                    continue
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        preprepares = tuple(
            PrePrepare(view=new_view, seq=seq, request=best[seq].request,
                       primary_id=self.id).signed(self.keypair)
            for seq in sorted(best)
        )
        new_view_msg = NewView(view=new_view, view_changes=view_changes,
                               preprepares=preprepares, primary_id=self.id).signed(self.keypair)
        self.env.broadcast(new_view_msg)
        self._enter_view(new_view, preprepares)

    def _on_new_view(self, new_view_msg: NewView) -> None:
        if new_view_msg.view <= self.view:
            self.stats.stale_messages += 1
            return
        if new_view_msg.primary_id != self.config.primary_of_view(new_view_msg.view):
            self.stats.stale_messages += 1
            return
        if not new_view_msg.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        signers = {vc.replica_id for vc in new_view_msg.view_changes
                   if vc.new_view == new_view_msg.view and vc.verify(self.keystore)}
        if len(signers) < self.config.quorum:
            self.stats.invalid_signatures += 1
            return
        self._enter_view(new_view_msg.view, new_view_msg.preprepares)

    def _enter_view(self, new_view: int, preprepares: tuple[PrePrepare, ...]) -> None:
        self.view = new_view
        self.in_view_change = False
        if self.tracer.enabled:
            self.tracer.emit("bft.viewchange.end", self.env.now(), self.id,
                             view=new_view)
        if self._vc_timer is not None:
            self._vc_timer.cancel()
            self._vc_timer = None
        self._view_changes = {v: votes for v, votes in self._view_changes.items() if v > new_view}
        for seq in list(self._instances):
            if not self._instances[seq].executed:
                del self._instances[seq]
        reproposed = {pp.seq for pp in preprepares}
        self._next_seq = max(
            [self.last_stable_seq + 1, self._next_exec] + [s + 1 for s in reproposed]
        )
        self.stats.view_changes_completed += 1
        if self.is_primary:
            for preprepare in preprepares:
                instance = self._instance(preprepare.seq)
                instance.preprepare = preprepare
                vote = Vote(view=new_view, seq=preprepare.seq, digest=preprepare.digest,
                            replica_id=self.id).signed(self.keypair)
                instance.votes[self.id] = vote
                self.env.broadcast(preprepare)
        else:
            for preprepare in preprepares:
                self._on_preprepare(preprepare)
        self._on_new_primary(self.primary_id)
