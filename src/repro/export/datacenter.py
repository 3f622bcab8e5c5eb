"""The data-center side of the export protocol.

Each railway company runs its own data center; all of them permanently
archive the blockchain and mutually verify exports.  Any data center can
initiate a round (Fig. 4): it reads from the replicas, waits for 2f+1
checkpoint replies plus full blocks from the designated replica, verifies,
synchronizes with its peers, and issues the signed delete.

Phase timings are recorded per round — they are what Table II reports
(read, verify, delete latencies for 500–16 000 blocks over LTE).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.bft.env import Env
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.export.messages import (
    BlockFetch,
    BlockFetchReply,
    DcSync,
    DeleteAck,
    DeleteRequest,
    ReadReply,
    ReadRequest,
    SessionResume,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.util.errors import ChainError, ProtocolError


@dataclass(frozen=True)
class DataCenterConfig:
    """Parameters of one data center."""

    dc_id: str
    replica_ids: tuple[str, ...]
    peer_dc_ids: tuple[str, ...] = ()
    ack_quorum: int = 1              # replica acks to consider the delete done
    #: Per-attempt round timeout; doubles on every retry.  Generous by
    #: default so the Table II full-duration exports never trip it — chaos
    #: scenarios override it down to exercise the retry path.
    round_timeout_s: float = 600.0
    max_round_retries: int = 3       # rotations before the round is abandoned


@dataclass
class DataCenterStats:
    """Round outcomes, reported as ``export.<field>``."""

    rounds_aborted: int = 0
    rounds_retried: int = 0
    resumes_accepted: int = 0
    sync_blocks_rejected: int = 0


@dataclass
class ExportRound:
    """Phase timeline and outcome of one export round."""

    started_at: float
    full_from: str
    read_done_at: float | None = None
    verify_done_at: float | None = None
    delete_done_at: float | None = None
    blocks_exported: int = 0
    checkpoint_seq: int = 0
    verify_cpu_s: float = 0.0
    fetch_rounds: int = 0
    retries: int = 0

    @property
    def read_s(self) -> float:
        return (self.read_done_at or self.started_at) - self.started_at

    @property
    def verify_s(self) -> float:
        if self.read_done_at is None or self.verify_done_at is None:
            return 0.0
        return self.verify_done_at - self.read_done_at

    @property
    def delete_s(self) -> float:
        if self.verify_done_at is None or self.delete_done_at is None:
            return 0.0
        return self.delete_done_at - self.verify_done_at

    @property
    def total_s(self) -> float:
        return (self.delete_done_at or self.started_at) - self.started_at

    @property
    def complete(self) -> bool:
        return self.delete_done_at is not None


class DataCenter:
    """One company's archive and export endpoint."""

    def __init__(
        self,
        env: Env,
        config: DataCenterConfig,
        bft_config: BftConfig,
        keypair,
        keystore,
        rng: random.Random,
        verify_cost: Callable[[int], float] | None = None,
        on_verified_cpu: Callable[[float], None] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bft_config = bft_config
        self.keypair = keypair
        self.keystore = keystore
        self._rng = rng
        # Data-center hardware is a cloud VM, not an 800 MHz ARM: the
        # verification cost function maps bytes to seconds on that machine.
        self._verify_cost = verify_cost or (lambda nbytes: 25e-6 + nbytes * 1.6e-9)
        self._charge_cpu = on_verified_cpu or (lambda seconds: None)

        self.archive = Blockchain(chain_id="zugchain")
        self.last_exported_sn = 0
        self._round: ExportRound | None = None
        self._replies: dict[str, ReadReply] = {}
        self._acks: dict[str, DeleteAck] = {}
        self._pending_blocks: dict[int, Block] = {}
        self.rounds: list[ExportRound] = []
        self.stats = DataCenterStats()
        self._round_timer = None
        #: Highest SessionResume incarnation seen per replica (stale-drop).
        self._incarnations: dict[str, int] = {}

    # -- round control -------------------------------------------------------------

    @property
    def current_round(self) -> ExportRound | None:
        return self._round

    def start_export(self, full_from: str | None = None) -> ExportRound:
        """Step ①: broadcast the read request to all replicas."""
        if self._round is not None and not self._round.complete:
            raise ProtocolError("an export round is already in progress")
        chosen = full_from or self._rng.choice(list(self.config.replica_ids))
        self._round = ExportRound(started_at=self.env.now(), full_from=chosen)
        if self.tracer.enabled:
            self.tracer.emit("export.round.start", self.env.now(), self.config.dc_id,
                             full_from=chosen, last_sn=self.last_exported_sn)
        self._replies = {}
        self._acks = {}
        self._pending_blocks = {}
        request = ReadRequest(
            dc_id=self.config.dc_id, last_sn=self.last_exported_sn, full_from=chosen
        ).signed(self.keypair)
        self.env.send_many(self.config.replica_ids, request)
        self._arm_round_timer()
        return self._round

    # -- retry / timeout machinery ----------------------------------------------------

    def _arm_round_timer(self) -> None:
        if self._round_timer is not None:
            self._round_timer.cancel()
        timeout = self.config.round_timeout_s * (2 ** self._round.retries)
        self._round_timer = self.env.set_timer(timeout, self._on_round_timeout)

    def _cancel_round_timer(self) -> None:
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    def _on_round_timeout(self) -> None:
        round_ = self._round
        if round_ is None or round_.complete:
            return
        if round_.retries >= self.config.max_round_retries:
            self._abort_round(
                f"round timed out after {round_.retries} retries"
            )
            return
        self._restart_read("timeout", rotate=True)

    def _restart_read(self, reason: str, rotate: bool) -> None:
        """Re-issue the read phase of the in-flight round.

        ``rotate`` picks a different designated replica (timeouts assume
        the previous one is gone); a session-resume retry keeps the same
        one — it just came back.  Collected replies are discarded: they
        were addressed to the previous attempt's designated set.
        """
        round_ = self._round
        round_.retries += 1
        self.stats.rounds_retried += 1
        if rotate:
            candidates = [
                r for r in sorted(self.config.replica_ids) if r != round_.full_from
            ]
            if candidates:
                round_.full_from = candidates[(round_.retries - 1) % len(candidates)]
        if self.tracer.enabled:
            self.tracer.emit("export.round.retried", self.env.now(),
                             self.config.dc_id, reason=reason,
                             retries=round_.retries, full_from=round_.full_from)
        round_.read_done_at = None
        round_.verify_done_at = None
        self._replies = {}
        self._pending_blocks = {}
        request = ReadRequest(
            dc_id=self.config.dc_id, last_sn=self.last_exported_sn,
            full_from=round_.full_from,
        ).signed(self.keypair)
        self.env.send_many(self.config.replica_ids, request)
        self._arm_round_timer()

    def _on_session_resume(self, resume: SessionResume) -> None:
        """A replica announces it recovered; unwedge any round stuck on it.

        Verification runs before any state is touched (a forged resume must
        not bump incarnation tracking or trigger a retry), and stale
        incarnations are dropped so reordered announcements cannot make a
        data center retry against a replica that crashed again.
        """
        if resume.replica_id not in self.config.replica_ids:
            return
        if not resume.verify(self.keystore):
            return
        if resume.incarnation <= self._incarnations.get(resume.replica_id, 0):
            return
        self._incarnations[resume.replica_id] = resume.incarnation
        self.stats.resumes_accepted += 1
        round_ = self._round
        if (
            round_ is not None
            and not round_.complete
            and round_.read_done_at is None
            and round_.full_from == resume.replica_id
            and round_.retries < self.config.max_round_retries
        ):
            self._restart_read("session-resume", rotate=False)

    # -- dispatch ----------------------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        if isinstance(message, ReadReply):
            self._on_read_reply(message)
        elif isinstance(message, BlockFetchReply):
            self._on_fetch_reply(message)
        elif isinstance(message, DeleteAck):
            self._on_delete_ack(message)
        elif isinstance(message, DcSync):
            self._on_sync(message)
        elif isinstance(message, SessionResume):
            self._on_session_resume(message)

    # -- step ② / ③: collect replies ------------------------------------------------------

    def _on_read_reply(self, reply: ReadReply) -> None:
        round_ = self._round
        if round_ is None or round_.read_done_at is not None:
            return
        if reply.replica_id not in self.config.replica_ids:
            return
        if not reply.verify(self.keystore):
            return
        self._replies[reply.replica_id] = reply
        for block in reply.blocks:
            self._pending_blocks[block.height] = block
        full_received = any(
            r.replica_id == round_.full_from and r.blocks for r in self._replies.values()
        ) or round_.full_from not in self.config.replica_ids
        if len(self._replies) >= self.bft_config.quorum and (
            full_received or self._designated_has_nothing_new()
        ):
            round_.read_done_at = self.env.now()
            if self.tracer.enabled:
                self.tracer.emit("export.read_done", self.env.now(), self.config.dc_id,
                                 replies=len(self._replies),
                                 blocks=len(self._pending_blocks))
            try:
                self._verify_and_continue()
            except ChainError as exc:
                self._abort_round(str(exc))

    def _designated_has_nothing_new(self) -> bool:
        """The designated replica replied but had no blocks beyond last_sn."""
        reply = self._replies.get(self._round.full_from)
        if reply is None:
            return False
        cp = reply.checkpoint
        return cp is None or cp.seq <= self.last_exported_sn

    # -- step ④: verify -----------------------------------------------------------------------

    def _latest_checkpoint(self) -> CheckpointCertificate | None:
        best: CheckpointCertificate | None = None
        for reply in self._replies.values():
            cp = reply.checkpoint
            if cp is None or not cp.verify(self.keystore, self.bft_config):
                continue
            if best is None or cp.seq > best.seq:
                best = cp
        return best

    def _verify_and_continue(self) -> None:
        round_ = self._round
        checkpoint = self._latest_checkpoint()
        if checkpoint is None or checkpoint.seq <= self.last_exported_sn:
            # Nothing new to export.
            round_.verify_done_at = self.env.now()
            round_.delete_done_at = self.env.now()
            self._cancel_round_timer()
            self.rounds.append(round_)
            return
        round_.checkpoint_seq = checkpoint.seq

        first_needed = self.archive.height + 1
        missing = [
            height for height in range(first_needed, checkpoint.block_height + 1)
            if height not in self._pending_blocks
        ]
        if missing:
            # Second round of communication: query replicas directly.
            round_.fetch_rounds += 1
            if round_.fetch_rounds > 3:
                raise ChainError("unable to obtain missing blocks after 3 fetch rounds")
            fetch = BlockFetch(
                dc_id=self.config.dc_id,
                first_height=missing[0],
                last_height=missing[-1],
            ).signed(self.keypair)
            target = self._rng.choice(
                [r for r in self.config.replica_ids if r != round_.full_from]
                or list(self.config.replica_ids)
            )
            self.env.send(target, fetch)
            return

        self._finish_verification(checkpoint)

    def _on_fetch_reply(self, reply: BlockFetchReply) -> None:
        if self._round is None or not reply.verify(self.keystore):
            return
        for block in reply.blocks:
            self._pending_blocks[block.height] = block
        try:
            self._verify_and_continue()
        except ChainError as exc:
            self._abort_round(str(exc))

    def _abort_round(self, reason: str) -> None:
        """A round fed inconsistent blocks dies; the data center does not.

        Signatures can all check out while the block *contents* are still
        hostile (bad links, payload-root mismatch, a head that contradicts
        the checkpoint) — those surface as :class:`ChainError` during
        verification.  Dropping the round and counting it keeps the
        dispatch path exception-free (SM006) and leaves the data center
        ready for the next ``start_export``.
        """
        self.stats.rounds_aborted += 1
        if self.tracer.enabled:
            self.tracer.emit("export.round.aborted", self.env.now(),
                             self.config.dc_id, reason=reason)
        self._cancel_round_timer()
        self._round = None
        self._replies = {}
        self._pending_blocks = {}

    def _finish_verification(self, checkpoint: CheckpointCertificate) -> None:
        round_ = self._round
        blocks = [
            self._pending_blocks[height]
            for height in range(self.archive.height + 1, checkpoint.block_height + 1)
        ]
        verify_bytes = sum(block.encoded_size() for block in blocks)
        cpu = self._verify_cost(verify_bytes) + len(blocks) * self._verify_cost(0)
        round_.verify_cpu_s += cpu
        self._charge_cpu(cpu)

        for block in blocks:
            self.archive.append(block)  # validates links + payload roots
        head = self.archive.block_at(checkpoint.block_height)
        if head.block_hash != checkpoint.block_hash:
            raise ChainError("verified chain head does not match the checkpoint")
        round_.blocks_exported = len(blocks)
        round_.verify_done_at = self.env.now() + cpu
        if self.tracer.enabled:
            self.tracer.emit("export.verify_done", round_.verify_done_at,
                             self.config.dc_id, blocks=len(blocks),
                             cpu_s=cpu)
        # Sync and delete leave only after the verification time has elapsed.
        self.env.set_timer(cpu, lambda: self._send_sync_and_delete(checkpoint, tuple(blocks)))

    def _send_sync_and_delete(self, checkpoint: CheckpointCertificate, blocks: tuple[Block, ...]) -> None:
        # Step ③: synchronize with peer data centers.
        if self.config.peer_dc_ids:
            sync = DcSync(
                dc_id=self.config.dc_id, checkpoint=checkpoint, blocks=tuple(blocks)
            ).signed(self.keypair)
            self.env.send_many(self.config.peer_dc_ids, sync)

        # Step ⑤: sign and broadcast the delete.
        delete = DeleteRequest(
            dc_id=self.config.dc_id,
            upto_sn=checkpoint.seq,
            block_height=checkpoint.block_height,
            block_hash=checkpoint.block_hash,
        ).signed(self.keypair)
        self.env.send_many(self.config.replica_ids, delete)
        self.last_exported_sn = checkpoint.seq

    # -- step ③ receive side: peer sync -----------------------------------------------------------

    def _on_sync(self, sync: DcSync) -> None:
        if not sync.verify(self.keystore):
            return
        if not sync.checkpoint.verify(self.keystore, self.bft_config):
            return
        appended = 0
        for block in sorted(sync.blocks, key=lambda b: b.height):
            if block.height == self.archive.height + 1:
                try:
                    self.archive.append(block)
                except ChainError:
                    # A correctly signed sync can still carry garbage blocks
                    # (the peer is mutually distrusted); reject, don't crash.
                    self.stats.sync_blocks_rejected += 1
                    break
                appended += 1
        if appended and sync.checkpoint.seq > self.last_exported_sn:
            self.last_exported_sn = sync.checkpoint.seq
            # A synchronized data center co-signs the delete (step ⑤ requires
            # a configurable number of distinct signatures on the replicas).
            delete = DeleteRequest(
                dc_id=self.config.dc_id,
                upto_sn=sync.checkpoint.seq,
                block_height=sync.checkpoint.block_height,
                block_hash=sync.checkpoint.block_hash,
            ).signed(self.keypair)
            self.env.send_many(self.config.replica_ids, delete)

    # -- step ⑦: acks ------------------------------------------------------------------------------

    def _on_delete_ack(self, ack: DeleteAck) -> None:
        round_ = self._round
        if round_ is None or round_.delete_done_at is not None:
            return
        if ack.replica_id not in self.config.replica_ids or not ack.verify(self.keystore):
            return
        self._acks[ack.replica_id] = ack
        if self.tracer.enabled:
            self.tracer.emit("export.block_acked", self.env.now(), self.config.dc_id,
                             replica=ack.replica_id, block_height=ack.block_height)
        if len(self._acks) >= self.config.ack_quorum:
            round_.delete_done_at = self.env.now()
            self._cancel_round_timer()
            if self.tracer.enabled:
                self.tracer.emit("export.delete_done", self.env.now(),
                                 self.config.dc_id,
                                 block_height=ack.block_height,
                                 acks=len(self._acks))
            self.rounds.append(round_)
