"""What every primary-based replica does around its ordering phase.

:class:`ReplicaCore` is the Table I interface and everything behind it that
does not depend on how a request gathers its quorum:

* ``propose(signed_request)`` — downcall; the primary assigns a sequence
  number inside the watermark window and broadcasts a preprepare;
* ``suspect()`` — downcall; vote to depose the current primary;
* ``on_decide(signed_request, sn)`` — upcall on totally ordered requests,
  delivered strictly in sequence order;
* ``on_new_primary(new_primary_id)`` — upcall after a completed view change.

Checkpoints are driven by the application (the ZugChain node creates one
per block, §III-C): ``record_checkpoint`` signs and broadcasts the
checkpoint message; once 2f+1 matching messages arrive the checkpoint is
stable, the message log below it is garbage collected, and the certificate
is retained for the export protocol.

A backend (:class:`~repro.bft.replica.PbftReplica`,
:class:`~repro.bft.linear.LinearBftReplica`) names its ``MESSAGE_TYPES`` and
per-sequence ``INSTANCE`` state, dispatches in ``on_message``, brings its
quorum handlers, and fills in three hooks: :meth:`ReplicaCore._endorse`,
:meth:`ReplicaCore._survives_view_change` and
:meth:`ReplicaCore._after_execute`.

Byzantine inputs (bad signatures, wrong view, non-primary preprepares,
conflicting digests, stale sequence numbers) are counted and dropped —
never raised — since faulty peers must not crash correct replicas.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
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
from repro.crypto.keys import KeyPair, KeyStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.dispatch import KindMap
from repro.wire.messages import SignedRequest, null_request


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


class ReplicaCore(ABC):
    """One replica bound to an :class:`~repro.bft.env.Env`, minus the ordering phase."""

    #: Message types the backend consumes (used by node-level dispatch).
    MESSAGE_TYPES: tuple[type, ...]
    #: ``KINDS[type(message)]`` is the entry of ``MESSAGE_TYPES`` the message
    #: is an instance of, or None; the node, the host and ``on_message`` all
    #: dispatch on it.
    KINDS: KindMap
    #: Ordering state of one sequence number: a ``preprepare``, an
    #: ``executed`` flag, the backend's votes, and ``log_bytes()`` over all
    #: of them.
    INSTANCE: type

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
        self._instances: dict[int, Any] = {}
        self._pending_exec: dict[int, SignedRequest] = {}
        self._checkpoints = CheckpointCollector(config, keystore)
        self._view_changes: dict[int, dict[str, ViewChange]] = {}
        self._vc_timer = None
        self._log_bytes = 0
        self.stats = ReplicaStats()

    # -- the three hooks ------------------------------------------------------------

    @abstractmethod
    def _endorse(self, preprepare: PrePrepare, instance: Any) -> None:
        """Cast this replica's vote on the preprepare it just accepted.

        Called for the primary's own proposals too
        (``preprepare.primary_id == self.id``): whatever stands in for the
        primary's vote is recorded here.
        """

    @abstractmethod
    def _survives_view_change(self, instance: Any) -> bool:
        """Whether ``instance`` (which has a preprepare) rides this replica's ViewChange.

        Must hold for every instance that may have been decided anywhere
        with this replica's help, *executed or not*: see
        :meth:`_new_view_preprepares`.
        """

    def _after_execute(self) -> None:
        """``_pending_exec`` changed and everything executable was delivered."""

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

    # -- ordering: what precedes and follows the backend's quorum -------------------

    def _instance(self, seq: int) -> Any:
        """The ordering state of ``seq``, created on first use."""
        instance = self._instances.get(seq)
        if instance is None:
            instance = self._instances[seq] = self.INSTANCE()
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
        self._endorse(preprepare, instance)

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
        self._after_execute()

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
            self._drop_instance(seq)
        self._log_bytes = max(0, self._log_bytes)

    def _drop_instance(self, seq: int) -> None:
        self._log_bytes -= self._instances.pop(seq).log_bytes()

    # -- view change -------------------------------------------------------------------

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
        proofs = tuple(
            PreparedProof(
                view=instance.preprepare.view, seq=seq,
                digest=instance.preprepare.digest,
                request=instance.preprepare.request,
            )
            for seq, instance in sorted(self._instances.items())
            if instance.preprepare is not None and self._survives_view_change(instance)
        )
        view_change = ViewChange(
            new_view=new_view,
            last_stable_seq=self.last_stable_seq,
            stable_checkpoint_digest=stable.state_digest if stable else b"\x00" * 32,
            prepared=proofs,
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
        """Re-propose the highest-view proof per sequence number, nulls in between.

        Three rules that are only safe together.  A sequence number no
        view change in the quorum has a proof for is plugged with a null
        request; so (:meth:`_survives_view_change`) a replica's proofs must
        cover what it *executed* above its stable checkpoint, or a request
        decided at 2f+1 replicas would be nulled out for a backup that
        still has to execute it; and so (:meth:`_enter_view`) a backup
        skips re-proposals below its own ``_next_exec``.
        """
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
                # No proof anywhere in the quorum: nothing can have been
                # decided at this seq, so plug the hole with a null request
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
        # Reset per-view ordering state above the stable checkpoint; decided
        # but unexecuted instances are re-proposed via the new-view preprepares.
        for seq in [s for s, instance in self._instances.items() if not instance.executed]:
            self._drop_instance(seq)
        self._log_bytes = max(0, self._log_bytes)
        self._next_seq = max(
            self.last_stable_seq + 1, self._next_exec,
            *(preprepare.seq + 1 for preprepare in preprepares),
        )
        self.stats.view_changes_completed += 1
        if self.is_primary:
            for preprepare in preprepares:
                self._accept_preprepare(preprepare)
                self._broadcast_preprepare(preprepare)
        else:
            for preprepare in preprepares:
                # Reproposals cover executed instances too; re-accepting
                # one locally executed would flag a digest conflict against
                # the retained old-view preprepare.
                if preprepare.seq < self._next_exec:
                    continue
                self._on_preprepare(preprepare)
        self._on_new_primary(self.primary_id)
