"""The PBFT replica: ordering, checkpointing, and view change.

Implements Castro & Liskov's protocol with the interface of Table I:

* ``propose(signed_request)`` — downcall; primary assigns a sequence number
  and broadcasts a preprepare;
* ``suspect()`` — downcall; vote to depose the current primary;
* ``on_decide(signed_request, sn)`` — upcall on totally ordered requests,
  delivered strictly in sequence order;
* ``on_new_primary(new_primary_id)`` — upcall after a completed view change.

Checkpoints are driven by the application (the ZugChain node creates one
per block, §III-C): ``record_checkpoint`` signs and broadcasts the
checkpoint message; once 2f+1 matching messages arrive the checkpoint is
stable, the message log below it is garbage collected, and the certificate
is retained for the export protocol.

Byzantine inputs (bad signatures, wrong view, non-primary preprepares,
conflicting digests, stale sequence numbers) are counted and dropped —
never raised — since faulty peers must not crash correct replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bft.checkpoint import CheckpointCertificate, CheckpointCollector
from repro.bft.config import BftConfig
from repro.bft.env import Env
from repro.bft.messages import (
    Checkpoint,
    Commit,
    DecideFetch,
    DecideProof,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    ViewChange,
)
from repro.crypto.keys import KeyPair, KeyStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.dispatch import KindMap
from repro.wire.messages import SignedRequest, null_request


@dataclass
class _Instance:
    """Ordering state of one (view, seq)."""

    preprepare: PrePrepare | None = None
    prepares: dict[str, Prepare] = field(default_factory=dict)
    commits: dict[str, Commit] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


@dataclass
class ReplicaStats:
    """Per-replica protocol counters for tests and analysis."""

    proposals: int = 0
    decided: int = 0
    invalid_signatures: int = 0
    stale_messages: int = 0
    conflicting_preprepares: int = 0
    view_changes_completed: int = 0
    view_changes_abandoned: int = 0
    checkpoints_stable: int = 0
    gap_fetches_sent: int = 0
    gap_proofs_served: int = 0
    gap_seqs_filled: int = 0


class PbftReplica:
    """One PBFT replica bound to an :class:`~repro.bft.env.Env`."""

    #: Message types this backend consumes (used by node-level dispatch).
    MESSAGE_TYPES = (PrePrepare, Prepare, Commit, Checkpoint, ViewChange, NewView,
                     DecideFetch, DecideProof)
    #: ``KINDS[type(message)]`` is the entry of ``MESSAGE_TYPES`` the message
    #: is an instance of, or None; the node, the host and ``on_message`` all
    #: dispatch on it.
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
        self._next_seq = 1       # next sequence the primary assigns
        self._next_exec = 1      # next sequence to execute
        self.last_stable_seq = 0
        self._instances: dict[int, _Instance] = {}
        self._pending_exec: dict[int, SignedRequest] = {}
        self._checkpoints = CheckpointCollector(config, keystore)
        self._view_changes: dict[int, dict[str, ViewChange]] = {}
        self._vc_timer = None
        self._gap_timer = None
        self._gap_attempt = 0
        self._log_bytes = 0
        self.stats = ReplicaStats()

    # -- role helpers -----------------------------------------------------------

    @property
    def primary_id(self) -> str:
        return self.config.primary_of_view(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary_id == self.id

    def log_size_bytes(self) -> int:
        """Approximate bytes held in the in-flight message log (for memory accounting)."""
        return self._log_bytes

    def stable_checkpoint(self, seq: int) -> CheckpointCertificate | None:
        return self._checkpoints.stable_at(seq)

    def latest_stable_checkpoint(self) -> CheckpointCertificate | None:
        return self._checkpoints.latest_stable()

    def stable_checkpoint_seqs(self) -> list[int]:
        return self._checkpoints.stable_seqs()

    def discard_checkpoints_below(self, seq: int) -> None:
        self._checkpoints.discard_below(seq)

    def fast_forward(self, certificate: CheckpointCertificate) -> None:
        """Adopt a verified stable checkpoint after state transfer.

        Execution resumes at the sequence following the checkpoint; the
        application state (blockchain) must already match — the state-sync
        engine verifies that before calling this.
        """
        # Idempotent: the watermark may already have advanced via a live
        # quorum of peer checkpoints — the execution pointer still needs
        # moving once the state transfer delivered the blocks.
        self._checkpoints.install(certificate)
        self.last_stable_seq = max(self.last_stable_seq, certificate.seq)
        self._next_exec = max(self._next_exec, certificate.seq + 1)
        self._next_seq = max(self._next_seq, certificate.seq + 1)
        self._pending_exec = {s: r for s, r in self._pending_exec.items()
                              if s > certificate.seq}
        self._garbage_collect(certificate.seq)
        self._execute_ready()

    def adopt_view(self, view: int) -> None:
        """Adopt a higher view learned out of band (state transfer).

        A replica recovering from a crash may have slept through several
        view changes; without catching up it would keep suspecting the old
        primary and open view changes no live quorum will ever close.  The
        guard is strictly monotonic — stale or equal views are ignored — so
        this can only move the replica forward, never roll it back.
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

    # -- downcalls (Table I) ------------------------------------------------------

    def propose(self, request: SignedRequest) -> bool:
        """Primary downcall: assign a sequence number and broadcast a preprepare.

        Returns False when this replica is not the primary or is mid view
        change (callers such as the ZugChain layer then rely on timeouts).
        """
        if not self.is_primary or self.in_view_change:
            return False
        seq = max(self._next_seq, self.last_stable_seq + 1)
        if seq > self.last_stable_seq + self.config.watermark_window:
            return False  # watermark window full; wait for a checkpoint
        self._next_seq = seq + 1
        preprepare = PrePrepare(
            view=self.view, seq=seq, request=request, primary_id=self.id
        ).signed(self.keypair)
        self.stats.proposals += 1
        self._accept_preprepare(preprepare)
        self._broadcast_preprepare(preprepare)
        return True

    def _broadcast_preprepare(self, preprepare: PrePrepare) -> None:
        """Separated so Byzantine subclasses can delay or drop proposals."""
        self.env.broadcast(preprepare)

    def suspect(self) -> None:
        """Vote to depose the primary of the current view."""
        self._start_view_change(self.view + 1)

    def vote_is_redundant(self, message: Any) -> bool:
        """True when a vote no longer influences this replica's state.

        Real BFT implementations check relevance before paying signature
        verification: a prepare for an already-prepared instance, a commit
        for an already-committed one, or a checkpoint at or below the stable
        sequence number are discarded after a table lookup.  The runtime
        uses this to charge reduced ingest cost for such messages.
        """
        kind = self.KINDS[type(message)]
        if kind is Commit:
            if message.seq < self._next_exec:
                return True
            instance = self._instances.get(message.seq)
            return instance is not None and instance.committed
        if kind is Prepare:
            if message.seq < self._next_exec:
                return True
            instance = self._instances.get(message.seq)
            return instance is not None and instance.prepared
        if kind is Checkpoint:
            return message.seq <= self.last_stable_seq
        return False

    # -- message dispatch ---------------------------------------------------------

    def on_message(self, src: str, message: Any) -> None:
        """Single entry point for all BFT protocol messages.

        Tests run most frequent kind first: per request a replica ingests
        three commits, two or three prepares and at most one preprepare.
        """
        kind = self.KINDS[type(message)]
        if kind is Commit:
            self._on_commit(message)
        elif kind is Prepare:
            self._on_prepare(message)
        elif kind is PrePrepare:
            self._on_preprepare(message)
        elif kind is Checkpoint:
            self._on_checkpoint(message)
        elif kind is ViewChange:
            self._on_view_change(message)
        elif kind is NewView:
            self._on_new_view(message)
        elif kind is DecideFetch:
            self._on_decide_fetch(message)
        elif kind is DecideProof:
            self._on_decide_proof(message)
        # Unknown message types are ignored: a Byzantine peer may send junk.

    # -- ordering: preprepare / prepare / commit ------------------------------------

    def _instance(self, seq: int) -> _Instance:
        """The ordering state of ``seq``, created on first use."""
        instance = self._instances.get(seq)
        if instance is None:
            instance = self._instances[seq] = _Instance()
        return instance

    def _in_watermarks(self, seq: int) -> bool:
        return self.last_stable_seq < seq <= self.last_stable_seq + self.config.watermark_window

    def _on_preprepare(self, preprepare: PrePrepare) -> None:
        if self.in_view_change or preprepare.view != self.view:
            self.stats.stale_messages += 1
            return
        if preprepare.primary_id != self.primary_id:
            self.stats.stale_messages += 1
            return
        if not self._in_watermarks(preprepare.seq):
            self.stats.stale_messages += 1
            return
        if not preprepare.verify(self.keystore) or not preprepare.request.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        instance = self._instance(preprepare.seq)
        if instance.preprepare is not None:
            if instance.preprepare.digest != preprepare.digest:
                # A primary proposing two different requests for one sequence
                # number is provably faulty.
                self.stats.conflicting_preprepares += 1
                self.suspect()
            return
        self._accept_preprepare(preprepare)
        prepare = Prepare(
            view=self.view, seq=preprepare.seq, digest=preprepare.digest,
            replica_id=self.id,
        ).signed(self.keypair)
        self._add_prepare(prepare)
        self.env.broadcast(prepare)

    def _accept_preprepare(self, preprepare: PrePrepare) -> None:
        instance = self._instance(preprepare.seq)
        instance.preprepare = preprepare
        self._log_bytes += preprepare.encoded_size()
        if self.tracer.enabled:
            self.tracer.emit(
                "bft.preprepare", self.env.now(), self.id,
                view=preprepare.view, seq=preprepare.seq,
                digest=preprepare.digest.hex(),
            )
        self._on_preprepare_accepted(preprepare.digest)
        # The primary's preprepare stands in for its prepare (PBFT rule).
        implicit = Prepare(
            view=preprepare.view, seq=preprepare.seq, digest=preprepare.digest,
            replica_id=preprepare.primary_id, signature=preprepare.signature,
        )
        instance.prepares.setdefault(preprepare.primary_id, implicit)
        self._check_prepared(preprepare.seq, instance)

    def _on_prepare(self, prepare: Prepare) -> None:
        if self.in_view_change or prepare.view != self.view or not self._in_watermarks(prepare.seq):
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(prepare.replica_id) or not prepare.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        self._add_prepare(prepare)

    def _add_prepare(self, prepare: Prepare) -> None:
        instance = self._instance(prepare.seq)
        if prepare.replica_id not in instance.prepares:
            instance.prepares[prepare.replica_id] = prepare
            self._log_bytes += prepare.encoded_size()
        self._check_prepared(prepare.seq, instance)

    def _check_prepared(self, seq: int, instance: _Instance) -> None:
        if instance.prepared or instance.preprepare is None:
            return
        digest = instance.preprepare.digest
        matching = sum(
            1 for prep in instance.prepares.values() if prep.digest == digest
        )
        # Preprepare + 2f prepares (the primary's implicit prepare counts).
        if matching >= self.config.prepared_quorum + 1:
            instance.prepared = True
            if self.tracer.enabled:
                self.tracer.emit(
                    "bft.prepare", self.env.now(), self.id,
                    view=self.view, seq=seq, digest=digest.hex(),
                )
            commit = Commit(
                view=self.view, seq=seq, digest=digest, replica_id=self.id
            ).signed(self.keypair)
            self._add_commit(commit)
            self.env.broadcast(commit)

    def _on_commit(self, commit: Commit) -> None:
        if commit.view != self.view or not self._in_watermarks(commit.seq):
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(commit.replica_id) or not commit.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        self._add_commit(commit)

    def _add_commit(self, commit: Commit) -> None:
        instance = self._instance(commit.seq)
        if commit.replica_id not in instance.commits:
            instance.commits[commit.replica_id] = commit
            self._log_bytes += commit.encoded_size()
        self._check_committed(commit.seq, instance)

    def _check_committed(self, seq: int, instance: _Instance) -> None:
        if instance.committed or not instance.prepared or instance.preprepare is None:
            return
        digest = instance.preprepare.digest
        matching = sum(
            1 for com in instance.commits.values() if com.digest == digest
        )
        if matching >= self.config.quorum:
            instance.committed = True
            if self.tracer.enabled:
                self.tracer.emit(
                    "bft.commit", self.env.now(), self.id,
                    view=self.view, seq=seq, digest=digest.hex(),
                )
            self._pending_exec[seq] = instance.preprepare.request
            self._execute_ready()

    def _execute_ready(self) -> None:
        """Deliver decided requests strictly in sequence order."""
        while self._next_exec in self._pending_exec:
            seq = self._next_exec
            request = self._pending_exec.pop(seq)
            instance = self._instances.get(seq)
            if instance is not None:
                instance.executed = True
            self._next_exec = seq + 1
            self.stats.decided += 1
            self._on_decide(request, seq)
        self._update_gap_timer()

    # -- execution gap fill ----------------------------------------------------------

    def _update_gap_timer(self) -> None:
        """Arm stall detection while commits wait above an execution gap.

        Lost preprepares (or a view change discarding in-flight instances)
        can leave later sequence numbers committed in ``_pending_exec``
        while ``_next_exec`` never arrives.  Without repair the replica
        stalls forever, its checkpoint votes go missing, and — once every
        correct node carries a gap somewhere — no checkpoint reaches 2f+1
        again and the whole group wedges.
        """
        if self._pending_exec:
            if self._gap_timer is None or not self._gap_timer.active:
                delay = self.config.gap_fetch_timeout_s * (2 ** min(self._gap_attempt, 4))
                self._gap_timer = self.env.set_timer(delay, self._on_gap_timeout)
        else:
            if self._gap_timer is not None:
                self._gap_timer.cancel()
                self._gap_timer = None
            self._gap_attempt = 0

    def _on_gap_timeout(self) -> None:
        self._gap_timer = None
        if not self._pending_exec:
            self._gap_attempt = 0
            return
        first = self._next_exec
        last = min(max(self._pending_exec),
                   first + self.config.max_gap_fetch_span - 1)
        peers = [rid for rid in self.config.replica_ids if rid != self.id]
        if not peers:
            return
        # Round-robin the target: the first peer asked may be crashed,
        # partitioned, or itself missing the instances.
        target = peers[self._gap_attempt % len(peers)]
        fetch = DecideFetch(
            requester_id=self.id, first_seq=first, last_seq=last,
        ).signed(self.keypair)
        self.env.send(target, fetch)
        self.stats.gap_fetches_sent += 1
        self._gap_attempt += 1
        if self.tracer.enabled:
            self.tracer.emit("bft.gap.fetch", self.env.now(), self.id,
                             first_seq=first, last_seq=last, peer=target)
        self._update_gap_timer()

    def _on_decide_fetch(self, fetch: DecideFetch) -> None:
        if not self.config.is_member(fetch.requester_id) or fetch.requester_id == self.id:
            self.stats.stale_messages += 1
            return
        if fetch.last_seq < fetch.first_seq:
            self.stats.stale_messages += 1
            return
        if not fetch.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        last = min(fetch.last_seq,
                   fetch.first_seq + self.config.max_gap_fetch_span - 1)
        for seq in range(fetch.first_seq, last + 1):
            instance = self._instances.get(seq)
            if instance is None or not instance.committed or instance.preprepare is None:
                continue
            digest = instance.preprepare.digest
            commits = tuple(sorted(
                (c for c in instance.commits.values() if c.digest == digest),
                key=lambda c: c.replica_id,
            ))
            if len(commits) < self.config.quorum:
                continue
            proof = DecideProof(
                replica_id=self.id, preprepare=instance.preprepare,
                commits=commits,
            ).signed(self.keypair)
            self.env.send(fetch.requester_id, proof)
            self.stats.gap_proofs_served += 1

    def _on_decide_proof(self, proof: DecideProof) -> None:
        preprepare = proof.preprepare
        seq = preprepare.seq
        if seq < self._next_exec or seq <= self.last_stable_seq:
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(proof.replica_id) or not proof.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        if not preprepare.verify(self.keystore) or not preprepare.request.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        digest = preprepare.digest
        signers: set[str] = set()
        for commit in proof.commits:
            if commit.seq != seq or commit.digest != digest:
                self.stats.invalid_signatures += 1
                return
            if not self.config.is_member(commit.replica_id) or not commit.verify(self.keystore):
                self.stats.invalid_signatures += 1
                return
            signers.add(commit.replica_id)
        if len(signers) < self.config.quorum:
            self.stats.invalid_signatures += 1
            return
        instance = self._instance(seq)
        if instance.executed:
            return
        # The certificate outranks local state: 2f+1 commits on this digest
        # mean f+1 correct replicas committed it, and no conflicting digest
        # can ever gather the same quorum — a differing stored preprepare is
        # a leftover from a discarded view.
        if instance.preprepare is None or instance.preprepare.digest != digest:
            instance.preprepare = preprepare
            self._log_bytes += preprepare.encoded_size()
        for commit in proof.commits:
            if commit.replica_id not in instance.commits:
                instance.commits[commit.replica_id] = commit
                self._log_bytes += commit.encoded_size()
        newly_committed = not instance.committed
        instance.prepared = True
        instance.committed = True
        if newly_committed:
            self.stats.gap_seqs_filled += 1
            if self.tracer.enabled:
                self.tracer.emit("bft.gap.filled", self.env.now(), self.id,
                                 seq=seq, digest=digest.hex())
        self._pending_exec[seq] = preprepare.request
        self._execute_ready()

    # -- checkpointing ---------------------------------------------------------------

    def record_checkpoint(self, seq: int, block_height: int, block_hash: bytes,
                          state_digest: bytes) -> None:
        """Application downcall after building the block covering ``seq``."""
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
            self.stats.view_changes_abandoned += 1
            if self._vc_timer is not None:
                self._vc_timer.cancel()
                self._vc_timer = None
            if self.tracer.enabled:
                # The stall is over even though no new view was installed:
                # this node resumes ordering in the view it never left.
                self.tracer.emit("bft.viewchange.end", self.env.now(), self.id,
                                 view=self.view, abandoned=True)
        if certificate.seq > self.last_stable_seq:
            self.last_stable_seq = certificate.seq
            self._garbage_collect(certificate.seq)
        self._on_stable_checkpoint(certificate)

    def _garbage_collect(self, stable_seq: int) -> None:
        for seq in [s for s in self._instances if s <= stable_seq]:
            self._log_bytes -= self._instance_bytes(self._instances[seq])
            del self._instances[seq]
        self._log_bytes = max(0, self._log_bytes)

    @staticmethod
    def _instance_bytes(instance: _Instance) -> int:
        total = 0
        if instance.preprepare is not None:
            total += instance.preprepare.encoded_size()
        total += sum(p.encoded_size() for p in instance.prepares.values())
        total += sum(c.encoded_size() for c in instance.commits.values())
        return total

    # -- view change -------------------------------------------------------------------

    def _prepared_proofs(self) -> tuple[PreparedProof, ...]:
        # Executed-but-not-yet-stable instances are included on purpose:
        # a seq committed anywhere was prepared at 2f+1 replicas, and the
        # new primary must learn about it from *some* view change in its
        # quorum or it would plug the seq with a null request — which a
        # lagging backup would then execute in place of the real one.
        proofs = []
        for seq in sorted(self._instances):
            instance = self._instances[seq]
            if instance.prepared and instance.preprepare is not None:
                proofs.append(PreparedProof(
                    view=instance.preprepare.view,
                    seq=seq,
                    digest=instance.preprepare.digest,
                    request=instance.preprepare.request,
                ))
        return tuple(proofs)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        already_voted = any(
            self.id in votes for view, votes in self._view_changes.items() if view >= new_view
        )
        if already_voted:
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
            prepared=self._prepared_proofs(),
            replica_id=self.id,
        ).signed(self.keypair)
        self._view_changes.setdefault(new_view, {})[self.id] = view_change
        self.env.broadcast(view_change)
        self._arm_view_change_timer(new_view)
        self._maybe_assume_leadership(new_view)

    def _arm_view_change_timer(self, target_view: int) -> None:
        if self._vc_timer is not None:
            self._vc_timer.cancel()

        def _escalate() -> None:
            # The view change did not complete in time: vote for the next view.
            if self.in_view_change:
                self._start_view_change(target_view + 1)

        self._vc_timer = self.env.set_timer(self.config.view_change_timeout_s, _escalate)

    def _on_view_change(self, view_change: ViewChange) -> None:
        if view_change.new_view <= self.view:
            self.stats.stale_messages += 1
            return
        if not self.config.is_member(view_change.replica_id) or not view_change.verify(self.keystore):
            self.stats.invalid_signatures += 1
            return
        votes = self._view_changes.setdefault(view_change.new_view, {})
        votes[view_change.replica_id] = view_change
        # Liveness rule: join a view change once f+1 peers vote for it.
        if not self.in_view_change and len(votes) >= self.config.f + 1:
            self._start_view_change(view_change.new_view)
        self._maybe_assume_leadership(view_change.new_view)

    def _maybe_assume_leadership(self, new_view: int) -> None:
        if self.config.primary_of_view(new_view) != self.id:
            return
        if new_view <= self.view:
            return
        votes = self._view_changes.get(new_view, {})
        if len(votes) < self.config.quorum:
            return
        view_changes = tuple(sorted(votes.values(), key=lambda vc: vc.replica_id))
        preprepares = self._new_view_preprepares(new_view, view_changes)
        new_view_msg = NewView(
            view=new_view, view_changes=view_changes, preprepares=preprepares,
            primary_id=self.id,
        ).signed(self.keypair)
        self.env.broadcast(new_view_msg)
        self._enter_view(new_view, preprepares)

    def _new_view_preprepares(
        self, new_view: int, view_changes: tuple[ViewChange, ...]
    ) -> tuple[PrePrepare, ...]:
        """Re-propose the highest-view prepared request per sequence number."""
        min_stable = max(vc.last_stable_seq for vc in view_changes)
        best: dict[int, PreparedProof] = {}
        for vc in view_changes:
            for proof in vc.prepared:
                if proof.seq <= min_stable:
                    continue
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        preprepares = []
        top = max(best) if best else min_stable
        for seq in range(min_stable + 1, top + 1):
            proof = best.get(seq)
            if proof is not None:
                request = proof.request
            else:
                # No prepared proof anywhere in the quorum: nothing can have
                # committed at this seq, so plug the hole with a null request
                # (PBFT's gap rule) — otherwise in-order execution stalls
                # forever on a number nobody will ever propose again.
                request = SignedRequest.create(
                    null_request(seq), self.id, self.keypair
                )
            preprepares.append(PrePrepare(
                view=new_view, seq=seq, request=request, primary_id=self.id,
            ).signed(self.keypair))
        return tuple(preprepares)

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
        self._view_changes = {
            view: votes for view, votes in self._view_changes.items() if view > new_view
        }
        # Reset per-view ordering state above the stable checkpoint; committed
        # but unexecuted instances are re-proposed via the new-view preprepares.
        reproposed = {pp.seq for pp in preprepares}
        for seq in list(self._instances):
            instance = self._instances[seq]
            if instance.executed:
                continue
            self._log_bytes -= self._instance_bytes(instance)
            del self._instances[seq]
        self._log_bytes = max(0, self._log_bytes)
        self._next_seq = max(
            self.last_stable_seq + 1, self._next_exec, *(seq + 1 for seq in reproposed)
        ) if reproposed else max(self.last_stable_seq + 1, self._next_exec)
        self.stats.view_changes_completed += 1
        if self.is_primary:
            for preprepare in preprepares:
                self._accept_preprepare(preprepare)
                self._broadcast_preprepare(preprepare)
        else:
            for preprepare in preprepares:
                # Reproposals now cover executed instances too; re-accepting
                # one locally executed would flag a digest conflict against
                # the retained old-view preprepare.
                if preprepare.seq < self._next_exec:
                    continue
                self._on_preprepare(preprepare)
        self._on_new_primary(self.primary_id)
