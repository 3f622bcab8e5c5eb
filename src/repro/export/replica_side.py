"""Replica-side export handling.

Serves read and fetch requests from the local chain and checkpoint store,
and executes deletes once enough distinct data centers have signed them.
Handles the error scenarios of §III-D's discussion:

* (i) a delete arriving before the corresponding block exists is held and
  re-evaluated whenever a block is created;
* (iii) insufficient or mismatching deletes are never executed;
* (v) if deletes are missed and memory runs low, the replica can fall back
  to dropping block bodies while retaining headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.env import Env
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain, PruneCertificate
from repro.crypto.keys import KeyPair, KeyStore
from repro.export.messages import (
    BlockFetch,
    BlockFetchReply,
    DeleteAck,
    DeleteRequest,
    ReadReply,
    ReadRequest,
    SessionResume,
)
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ExportConfig:
    """Replica-side export parameters."""

    delete_quorum: int = 2           # distinct data centers required per delete
    max_blocks_per_reply: int = 0    # 0 = unlimited
    emergency_headers_keep: int = 8  # bodies kept when memory runs out


@dataclass
class ExportStats:
    reads_served: int = 0
    blocks_served: int = 0
    deletes_executed: int = 0
    deletes_held: int = 0
    deletes_rejected: int = 0
    fetches_served: int = 0
    sessions_resumed: int = 0


class ExportHandler:
    """One replica's export endpoint, attached to its node."""

    def __init__(
        self,
        env: Env,
        config: ExportConfig,
        keypair: KeyPair,
        keystore: KeyStore,        # must contain replica AND data-center keys
        chain: Blockchain,
        latest_checkpoint: Callable[[], CheckpointCertificate | None],
        discard_checkpoints_below: Callable[[int], None] = lambda seq: None,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.keypair = keypair
        self.keystore = keystore
        self.chain = chain
        self._latest_checkpoint = latest_checkpoint
        self._discard_checkpoints_below = discard_checkpoints_below
        # (height, hash) -> {dc_id: DeleteRequest}
        self._pending_deletes: dict[tuple[int, bytes], dict[str, DeleteRequest]] = {}
        #: Bumped by :meth:`resume_sessions` after each crash recovery so
        #: data centers can discard announcements from older incarnations.
        self.incarnation = 0
        self.stats = ExportStats()

    # -- dispatch ---------------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        if isinstance(message, ReadRequest):
            self._on_read(src, message)
        elif isinstance(message, DeleteRequest):
            self._on_delete(src, message)
        elif isinstance(message, BlockFetch):
            self._on_fetch(src, message)

    # -- read (steps ①/②) ---------------------------------------------------------

    def _on_read(self, src: str, request: ReadRequest) -> None:
        if not request.verify(self.keystore):
            return
        checkpoint = self._latest_checkpoint()
        blocks: tuple[Block, ...] = ()
        if checkpoint is not None and request.full_from == self.env.node_id:
            first = max(self.chain.base_height, 0) + 1
            # Blocks the data center does not have yet, up to the checkpoint.
            first_needed = max(first, self._height_after_sn(request.last_sn))
            last = min(checkpoint.block_height, self.chain.height)
            if first_needed <= last:
                served = self.chain.blocks_in_range(first_needed, last)
                if self.config.max_blocks_per_reply:
                    served = served[: self.config.max_blocks_per_reply]
                blocks = tuple(served)
                self.stats.blocks_served += len(blocks)
        reply = ReadReply(
            replica_id=self.env.node_id, checkpoint=checkpoint, blocks=blocks
        ).signed(self.keypair)
        self.stats.reads_served += 1
        if self.tracer.enabled and blocks:
            self.tracer.emit("export.block_sent", self.env.now(), self.env.node_id,
                             dc=request.dc_id, blocks=len(blocks))
        self.env.send(request.dc_id, reply)

    def _height_after_sn(self, last_sn: int) -> int:
        """First stored height whose block covers sequence numbers > last_sn."""
        for height in range(self.chain.base_height, self.chain.height + 1):
            if self.chain.block_at(height).last_sn > last_sn:
                return height
        return self.chain.height + 1

    # -- delete (steps ⑤/⑥/⑦) --------------------------------------------------------

    def _on_delete(self, src: str, delete: DeleteRequest) -> None:
        if not delete.verify(self.keystore):
            self.stats.deletes_rejected += 1
            return
        key = (delete.block_height, delete.block_hash)
        votes = self._pending_deletes.setdefault(key, {})
        votes[delete.dc_id] = delete
        self._try_execute_delete(key)

    def on_block_created(self, block: Block) -> None:
        """Error scenario (i): re-evaluate deletes held for not-yet-built blocks."""
        self._try_execute_delete((block.height, block.block_hash))

    def _try_execute_delete(self, key: tuple[int, bytes]) -> None:
        votes = self._pending_deletes.get(key)
        if votes is None or len(votes) < self.config.delete_quorum:
            return
        height, block_hash = key
        if not self.chain.has_block(height):
            if height > self.chain.height:
                # Block not created yet: hold the delete (scenario i).
                self.stats.deletes_held += 1
                return
            # Already pruned below: the delete is stale, drop it.
            del self._pending_deletes[key]
            return
        block = self.chain.block_at(height)
        if block.block_hash != block_hash:
            self.stats.deletes_rejected += 1
            del self._pending_deletes[key]
            return
        certificate = PruneCertificate(
            base_height=height,
            base_block_hash=block_hash,
            delete_signatures={dc: d.signature for dc, d in votes.items()},
        )
        self.chain.prune_below(height, certificate)
        self._discard_checkpoints_below(block.last_sn)
        self.stats.deletes_executed += 1
        if self.tracer.enabled:
            self.tracer.emit("chain.pruned", self.env.now(), self.env.node_id,
                             below_height=height, block_hash=block_hash.hex())
        ack = DeleteAck(
            replica_id=self.env.node_id, block_height=height, block_hash=block_hash
        ).signed(self.keypair)
        for dc_id in votes:
            self.env.send(dc_id, ack)
        del self._pending_deletes[key]

    # -- crash recovery (session resume) ------------------------------------------------

    def resume_sessions(self, dc_ids: list[str], incarnation: int | None = None) -> None:
        """Announce recovery to every data center (signed SessionResume).

        Called after the hosting replica rebuilt its state from durable
        storage.  A data center whose export round wedged on this replica
        uses the announcement to retry immediately rather than waiting out
        its backoff timer.
        """
        self.incarnation = (
            incarnation if incarnation is not None else self.incarnation + 1
        )
        head = self.chain.head
        announce = SessionResume(
            replica_id=self.env.node_id,
            chain_height=self.chain.height,
            head_hash=head.block_hash,
            incarnation=self.incarnation,
        ).signed(self.keypair)
        self.stats.sessions_resumed += 1
        if self.tracer.enabled:
            self.tracer.emit("export.session.resumed", self.env.now(),
                             self.env.node_id, incarnation=self.incarnation,
                             height=self.chain.height)
        for dc_id in sorted(dc_ids):
            self.env.send(dc_id, announce)

    # -- fetch (step ④, second round) -----------------------------------------------------

    def _on_fetch(self, src: str, fetch: BlockFetch) -> None:
        if not fetch.verify(self.keystore):
            return
        first = max(fetch.first_height, self.chain.base_height)
        last = min(fetch.last_height, self.chain.height)
        blocks = tuple(self.chain.blocks_in_range(first, last)) if first <= last else ()
        reply = BlockFetchReply(replica_id=self.env.node_id, blocks=blocks).signed(self.keypair)
        self.stats.fetches_served += 1
        if self.tracer.enabled and blocks:
            self.tracer.emit("export.block_sent", self.env.now(), self.env.node_id,
                             dc=fetch.dc_id, blocks=len(blocks))
        self.env.send(fetch.dc_id, reply)

    # -- memory-exhaustion fallback (error scenario v) ------------------------------------------

    def emergency_header_prune(self) -> int:
        """Drop old block bodies, keep headers; returns the affected count."""
        keep_from = max(
            self.chain.base_height + 1,
            self.chain.height - self.config.emergency_headers_keep,
        )
        return self.chain.drop_bodies_below(keep_from)
