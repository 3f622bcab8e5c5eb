"""Replica state synchronization: catching up after downtime.

§III-D's discussion (ii) covers "transferring a checkpoint to another
replica": the receiving replica verifies the checkpoint certificate, the
chain segment, and — when the chain does not start at genesis — the signed
deletes that justify its base.  This module turns that into a live
protocol so a node that was down (power cycle, maintenance) rejoins
without replaying the full history:

1. the lagging node notices stable checkpoints far beyond its execution
   point (f+1 distinct peers vouching, so a single liar cannot trigger
   bogus syncs) and sends a :class:`StateRequest` to one of them;
2. the peer answers with a :class:`StateReply` carrying its latest stable
   checkpoint certificate, the blocks from the requester's height, and its
   prune certificate;
3. the requester verifies everything offline and fast-forwards: chain,
   replica watermarks, and block builder move to the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain, PruneCertificate
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, KeyStore
from repro.util.errors import ChainError
from repro.wire.codec import UNSIGNED, Sig, SignedStruct

_DOMAIN_STATE_REQ = b"statesync/request"
_DOMAIN_STATE_REP = b"statesync/reply"


@dataclass(frozen=True)
class StateRequest(SignedStruct, tag=32):
    """A lagging replica asks a peer for everything above ``have_height``."""

    requester_id: str
    have_height: int
    signature: Sig = UNSIGNED

    SIGNER = "requester_id"
    signs_to_emit = 1
    verifies_to_ingest = 1

    def signing_payload(self) -> bytes:
        return sha256(self.requester_id.encode(), self.have_height.to_bytes(8, "big"),
                      domain=_DOMAIN_STATE_REQ)


@dataclass(frozen=True)
class StateReply(SignedStruct, tag=33):
    """Checkpointed state: certificate, chain segment, prune justification.

    ``view`` carries the responder's current view so a recovering replica
    can catch up past view changes it slept through (a node stuck in an old
    view would suspect the wrong primary forever).  Adopting a peer's view
    only affects liveness, never safety — a lying responder can at worst
    delay the requester's participation until the next genuine view change.
    """

    replica_id: str
    checkpoint: CheckpointCertificate
    blocks: tuple[Block, ...]
    prune_base_height: int
    prune_base_hash: bytes
    prune_signatures: tuple[tuple[str, Sig], ...]  # (dc id, signature)
    view: int = 0
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1

    @property
    def verifies_to_ingest(self) -> int:
        return 1 + len(self.checkpoint.signatures)

    def signing_payload(self) -> bytes:
        return sha256(self.replica_id.encode(), self.checkpoint.encode(),
                      self.view.to_bytes(8, "big"),
                      *[block.block_hash for block in self.blocks],
                      domain=_DOMAIN_STATE_REP)

    def prune_certificate(self) -> PruneCertificate | None:
        if not self.prune_signatures:
            return None
        return PruneCertificate(
            base_height=self.prune_base_height,
            base_block_hash=self.prune_base_hash,
            delete_signatures=dict(self.prune_signatures),
        )


@dataclass
class SyncStats:
    """State-transfer outcomes, reported as ``sync.<field>``."""

    completed: int = 0
    rejected: int = 0
    retried: int = 0


class StateSync:
    """Per-node state-sync engine, driven by the node's message dispatch."""

    def __init__(
        self,
        env,
        bft_config: BftConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        chain: Blockchain,
        replica,
        lag_blocks: int = 3,
        sync_timeout_s: float = 0.5,
        max_sync_retries: int = 4,
        on_fast_forward=None,
        tracer=None,
    ) -> None:
        self.env = env
        self.bft_config = bft_config
        self.keypair = keypair
        self.keystore = keystore
        self.chain = chain
        self.replica = replica
        self.lag_blocks = lag_blocks
        self.sync_timeout_s = sync_timeout_s
        self.max_sync_retries = max_sync_retries
        self._on_fast_forward = on_fast_forward or (lambda blocks: None)
        from repro.obs.trace import NULL_TRACER  # avoid import cycle

        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Checkpoint seqs observed per peer (f+1 rule against liars).
        self._observed_ahead: dict[str, int] = {}
        self._sync_in_flight = False
        self._sync_timer = None
        self._vouchers: list[str] = []
        self._attempt = 0
        self.stats = SyncStats()

    # -- lag detection -----------------------------------------------------------

    def observe_checkpoint(self, src: str, checkpoint: Checkpoint) -> None:
        """Called by the node for every checkpoint message it sees.

        Lag is measured against the *chain*, not the replica's watermark:
        a quorum of peer checkpoints advances the watermark on its own,
        but only a state transfer can backfill the missing blocks.
        """
        if checkpoint.block_height <= self.chain.height + self.lag_blocks:
            return
        # Only a verified member checkpoint may count as a voucher: the
        # f+1 rule below is meaningless if a non-member (or a forger) can
        # populate the vouching map.
        if not self.bft_config.is_member(src) or not checkpoint.verify(self.keystore):
            return
        self._observed_ahead[src] = max(self._observed_ahead.get(src, 0),
                                        checkpoint.block_height)
        vouching = [peer for peer, height in self._observed_ahead.items()
                    if height > self.chain.height + self.lag_blocks]
        if len(vouching) >= self.bft_config.f + 1 and not self._sync_in_flight:
            self._sync_in_flight = True
            self._vouchers = sorted(vouching)
            self._attempt = 0
            self._send_request()

    def sync_from_certificate(self, certificate: CheckpointCertificate) -> None:
        """Force a transfer when the stable watermark outran execution.

        A replica can stabilize a checkpoint it never executed up to: 2f+1
        *peers* certified seq N while this replica still has an execution
        gap below N.  Garbage collection at N then deletes the very
        instances it was missing, so no in-protocol path (commits, decide
        proofs) can ever close the gap — state transfer is the only way
        forward.  The certificate itself carries the 2f+1 signatures, so
        the f+1-voucher rule is already satisfied; its signers minus self
        become the transfer targets.
        """
        if self._sync_in_flight:
            return
        if certificate.block_height <= self.chain.height:
            return
        vouchers = sorted(certificate.signer_ids() - {self.env.node_id})
        if not vouchers:
            return
        self._sync_in_flight = True
        self._vouchers = vouchers
        self._attempt = 0
        self._send_request()

    def _send_request(self) -> None:
        """Send the current attempt's StateRequest and arm its retry timer.

        Targets rotate over the vouching peers and the timeout doubles per
        attempt, so a crashed or partitioned responder cannot wedge the sync.
        """
        target = self._vouchers[self._attempt % len(self._vouchers)]
        request = StateRequest(
            requester_id=self.env.node_id, have_height=self.chain.height,
        ).signed(self.keypair)
        self.env.send(target, request)
        timeout = self.sync_timeout_s * (2 ** self._attempt)
        self._sync_timer = self.env.set_timer(timeout, self._on_sync_timeout)

    def _on_sync_timeout(self) -> None:
        if not self._sync_in_flight:
            return
        if self._attempt >= self.max_sync_retries:
            # Bounded per trigger: release the latch so the next observed
            # checkpoint (fresh f+1 evidence) may start a new sync cycle.
            self._sync_in_flight = False
            self._sync_timer = None
            return
        self._attempt += 1
        self.stats.retried += 1
        self._send_request()

    # -- serving -------------------------------------------------------------------

    def handle_request(self, src: str, request: StateRequest) -> None:
        if not request.verify(self.keystore):
            return
        checkpoint = self.replica.latest_stable_checkpoint()
        if checkpoint is None:
            return
        first = max(request.have_height + 1, self.chain.base_height)
        last = min(checkpoint.block_height, self.chain.height)
        if request.have_height < self.chain.base_height:
            # The requester is behind our prune point: ship our whole chain
            # (base included) plus the prune certificate that justifies it.
            first = self.chain.base_height
        blocks = tuple(self.chain.blocks_in_range(first, last)) if first <= last else ()
        prune = self.chain.prune_certificate
        reply = StateReply(
            replica_id=self.env.node_id,
            checkpoint=checkpoint,
            blocks=blocks,
            prune_base_height=prune.base_height if prune else 0,
            prune_base_hash=prune.base_block_hash if prune else b"",
            prune_signatures=tuple(prune.delete_signatures.items()) if prune else (),
            view=self.replica.view,
        ).signed(self.keypair)
        self.env.send(request.requester_id, reply)

    # -- applying ---------------------------------------------------------------------

    def handle_reply(self, src: str, reply: StateReply) -> bool:
        """Apply one state reply; returns True when the chain advanced.

        The signature checks run before *any* state is touched: a forged
        reply must not clear the in-flight latch (stalling or re-arming a
        genuine sync) and must not reach the chain-adoption path.
        """
        if not reply.verify(self.keystore):
            self.stats.rejected += 1
            return False
        if not reply.checkpoint.verify(self.keystore, self.bft_config):
            self.stats.rejected += 1
            return False
        self._sync_in_flight = False
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        if reply.checkpoint.block_height <= self.chain.height:
            return False  # stale: the chain already covers this checkpoint
        try:
            self._apply(reply)
        except ChainError:
            self.stats.rejected += 1
            return False
        # View catch-up rides on the (signed) reply: monotonic adoption only,
        # enforced by the replica itself.
        self.replica.adopt_view(reply.view)
        self.stats.completed += 1
        return True

    def _apply(self, reply: StateReply) -> None:
        had_height = self.chain.height
        blocks = sorted(reply.blocks, key=lambda b: b.height)
        if blocks and blocks[0].height != had_height + 1:
            # The peer pruned past our head, or the segment overlaps ours:
            # verify it standalone, prune certificate included, then adopt.
            candidate = Blockchain.from_blocks(blocks, chain_id=self.chain.chain_id,
                                               prune_certificate=reply.prune_certificate())
            if candidate.head.block_hash != reply.checkpoint.block_hash:
                raise ChainError("transferred chain does not end on the checkpoint")
            self.chain.adopt(candidate)
        else:
            # The segment extends our chain: it must hash-link from the
            # checkpoint's block back to our head before any of it is
            # appended (and so persisted).
            expected = reply.checkpoint.block_hash
            for block in reversed(blocks):
                if block.block_hash != expected:
                    raise ChainError("synced segment does not lead to the checkpoint")
                expected = block.header.prev_hash
            if expected != self.chain.head.block_hash:
                raise ChainError("synced segment does not link to our head")
            for block in blocks:
                self.chain.append(block)
        # The checkpoint sits on a block boundary: block assembly resets and
        # the adopted requests count as logged *before* fast_forward replays
        # queued decides, or stale builder leftovers cut a divergent block.
        adopted = tuple(b for b in blocks if b.height > had_height)
        self._on_fast_forward(adopted)
        self.replica.fast_forward(reply.checkpoint)
        if self.tracer.enabled:
            # Never locally ordered, so not ``req.logged``: recovered nodes
            # stay auditable without faking an ordering they did not perform.
            now = self.env.now()
            for block in adopted:
                for signed in block.requests:
                    self.tracer.emit("req.synced", now, self.env.node_id,
                                     digest=signed.digest.hex(),
                                     height=block.height)
