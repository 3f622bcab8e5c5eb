"""The PBFT replica: the prepare/commit ordering phase and execution gap fill.

Castro & Liskov's three-phase agreement on top of
:class:`~repro.bft.core.ReplicaCore`, which owns the Table I interface,
checkpointing and the view change.  What is PBFT's own:

* a backup endorses an accepted preprepare by *broadcasting* a ``Prepare``
  (the primary's preprepare stands in for its own);
* preprepare + 2f matching prepares make an instance *prepared* and
  trigger a broadcast ``Commit``; 2f+1 matching commits *commit* it;
* prepared instances ride a view change;
* a replica whose execution is stuck below committed instances fetches the
  missing decisions (``DecideFetch`` / ``DecideProof``: the preprepare plus
  2f+1 commits) from its peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bft.core import ReplicaCore
from repro.bft.messages import (
    Checkpoint,
    Commit,
    DecideFetch,
    DecideProof,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.util.dispatch import KindMap


@dataclass
class _Instance:
    """Ordering state of one (view, seq)."""

    preprepare: PrePrepare | None = None
    prepares: dict[str, Prepare] = field(default_factory=dict)
    commits: dict[str, Commit] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False

    def log_bytes(self) -> int:
        total = self.preprepare.encoded_size() if self.preprepare is not None else 0
        total += sum(p.encoded_size() for p in self.prepares.values())
        total += sum(c.encoded_size() for c in self.commits.values())
        return total


class PbftReplica(ReplicaCore):
    """One PBFT replica bound to an :class:`~repro.bft.env.Env`."""

    MESSAGE_TYPES = (PrePrepare, Prepare, Commit, Checkpoint, ViewChange, NewView,
                     DecideFetch, DecideProof)
    KINDS = KindMap(MESSAGE_TYPES)
    INSTANCE = _Instance

    # Gap fill: the armed stall timer and how many fetches went unanswered.
    _gap_timer = None
    _gap_attempt = 0

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

    # -- ordering: prepare / commit ---------------------------------------------------

    def _endorse(self, preprepare: PrePrepare, instance: _Instance) -> None:
        # The primary's preprepare stands in for its prepare (PBFT rule).
        implicit = Prepare(
            view=preprepare.view, seq=preprepare.seq, digest=preprepare.digest,
            replica_id=preprepare.primary_id, signature=preprepare.signature,
        )
        instance.prepares.setdefault(preprepare.primary_id, implicit)
        self._check_prepared(preprepare.seq, instance)
        if preprepare.primary_id != self.id:
            prepare = Prepare(
                view=self.view, seq=preprepare.seq, digest=preprepare.digest,
                replica_id=self.id,
            ).signed(self.keypair)
            self._add_prepare(prepare)
            self.env.broadcast(prepare)

    def _survives_view_change(self, instance: _Instance) -> bool:
        # Executed-but-not-yet-stable instances included: a seq committed
        # anywhere was prepared at 2f+1 replicas, and the new primary must
        # learn about it from *some* view change in its quorum.
        return instance.prepared

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
        if len(instance.prepares) < self.config.prepared_quorum + 1:
            return  # too few votes of any digest: nothing to count yet
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
        if len(instance.commits) < self.config.quorum:
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

    # -- execution gap fill ----------------------------------------------------------

    def _after_execute(self) -> None:
        self._update_gap_timer()

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
