"""The ZugChain communication layer — Algorithm 1 of the paper.

Replaces traditional BFT client interaction with direct handling of bus
input.  Line references below are to Alg. 1:

* ``receive`` (ln. 5–11): insert into the request queue R; the node
  co-located with the primary signs and PROPOSEs; backups arm a
  SOFT_TIMEOUT per request;
* ``on_decide`` (ln. 12–20): remove from R, cancel timers, suspect the
  primary on duplicates (ln. 17–18), otherwise LOG with the origin id;
* soft timeout (ln. 21–24): sign, start HARD_TIMEOUT, broadcast;
* ``on_broadcast`` (ln. 25–32): ignore logged duplicates, primary proposes
  unseen requests with the broadcaster's id, backups arm a HARD_TIMEOUT
  and forward to the primary;
* hard timeout (ln. 33–35): suspect the primary (censorship detection);
* ``on_new_primary`` (ln. 36–43): the new primary proposes all open
  requests, backups restart their soft timeouts.

The layer supports multiple input sources (one queue per connected link,
§III-C "Multiple Input Sources"), rate limits open broadcasts per node
(fault case iii), and can optionally treat an observed preprepare as an
early indication that a request will be ordered, cancelling its soft
timeout (§III-C optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.filtering import DedupIndex
from repro.core.messages import ZugBroadcast, ZugForward
from repro.core.ratelimit import OpenRequestLimiter
from repro.bft.env import Env
from repro.crypto.keys import KeyPair, KeyStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.wire.messages import Request, SignedRequest, is_null_request


@dataclass(frozen=True)
class ZugChainConfig:
    """Timeouts and filter parameters of the communication layer.

    The evaluation uses soft = hard = 250 ms so the total until a view
    change matches the baseline's 500 ms view-change timeout (Fig. 8).
    """

    soft_timeout_s: float = 0.250
    hard_timeout_s: float = 0.250
    checkpoint_interval: int = 10
    dedup_window_checkpoints: int = 16
    max_open_per_node: int = 16
    preprepare_cancels_soft: bool = True
    filtering_enabled: bool = True  # ablation knob; False ≈ order every copy


@dataclass
class _OpenRequest:
    """R-queue entry: the request plus its timer state."""

    request: Request
    received_at: float
    source_link: str
    soft_timer: object = None
    hard_timer: object = None
    broadcast_origin: str | None = None  # set when it entered via a broadcast


@dataclass
class LayerStats:
    received: int = 0
    proposed: int = 0
    filtered_duplicates: int = 0
    soft_timeouts: int = 0
    hard_timeouts: int = 0
    broadcasts_sent: int = 0
    forwards_sent: int = 0
    broadcasts_ignored_logged: int = 0
    broadcasts_rate_limited: int = 0
    duplicate_decides: int = 0
    suspicions: int = 0
    logged: int = 0
    nulls_decided: int = 0
    synced_recorded: int = 0


class ZugChainLayer:
    """Algorithm 1, bound to an Env, a BFT module, and a LOG upcall."""

    def __init__(
        self,
        env: Env,
        config: ZugChainConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        propose: Callable[[SignedRequest], bool],
        suspect: Callable[[], None],
        on_log: Callable[[SignedRequest, int], None],
        initial_primary: str,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.keypair = keypair
        self.keystore = keystore
        self._propose = propose
        self._suspect_bft = suspect
        self._on_log = on_log
        self.primary = initial_primary
        self.id = env.node_id

        self._queue: dict[bytes, _OpenRequest] = {}  # R, keyed by digest
        self._dedup = DedupIndex(
            checkpoint_interval=config.checkpoint_interval,
            window_checkpoints=config.dedup_window_checkpoints,
        )
        self._limiter = OpenRequestLimiter(config.max_open_per_node)
        self.stats = LayerStats()

    # -- introspection -----------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.primary == self.id

    @property
    def open_requests(self) -> int:
        return len(self._queue)

    def queue_size_bytes(self) -> int:
        return sum(
            len(entry.request.payload) + 64 for entry in self._queue.values()
        ) + self._dedup.size_bytes()

    def in_log(self, digest: bytes) -> bool:
        return self._dedup.in_log(digest)

    def in_queue(self, digest: bytes) -> bool:
        return digest in self._queue

    # -- ln. 5–11: bus reception ----------------------------------------------------

    def receive(self, request: Request) -> None:
        """RECEIVE upcall: parsed request read from the bus."""
        self.stats.received += 1
        digest = request.digest
        if self.config.filtering_enabled and self._dedup.in_log(digest):
            # Late or re-delivered bus data already logged: nothing to do.
            self.stats.filtered_duplicates += 1
            if self.tracer.enabled:
                self.tracer.emit("layer.dedup_drop", self.env.now(), self.id,
                                 where="rx", digest=digest.hex())
            return
        if digest in self._queue:
            # Same content already open (e.g. second link delivered it too).
            self.stats.filtered_duplicates += 1
            if self.tracer.enabled:
                self.tracer.emit("layer.dedup_drop", self.env.now(), self.id,
                                 where="rx", digest=digest.hex())
            return
        entry = _OpenRequest(
            request=request,
            received_at=self.env.now(),
            source_link=request.source_link,
        )
        self._queue[digest] = entry
        if self.is_primary:
            signed = SignedRequest.create(request, self.id, self.keypair)
            self.stats.proposed += 1
            self._propose(signed)
        elif not self.config.filtering_enabled:
            # Ablation mode: no duplicate suppression at all — every node
            # submits its copy immediately, as traditional clients would.
            signed = SignedRequest.create(request, self.id, self.keypair)
            self.stats.broadcasts_sent += 1
            self.env.broadcast(ZugBroadcast(request=signed))
            entry.hard_timer = self.env.set_timer(
                self.config.hard_timeout_s, lambda: self._hard_timeout(digest)
            )
        else:
            entry.soft_timer = self.env.set_timer(
                self.config.soft_timeout_s, lambda: self._soft_timeout(digest)
            )

    # -- ln. 21–24: soft timeout ------------------------------------------------------

    def _soft_timeout(self, digest: bytes) -> None:
        entry = self._queue.get(digest)
        if entry is None:
            return
        self.stats.soft_timeouts += 1
        signed = SignedRequest.create(entry.request, self.id, self.keypair)
        entry.hard_timer = self.env.set_timer(
            self.config.hard_timeout_s, lambda: self._hard_timeout(digest)
        )
        self.stats.broadcasts_sent += 1
        self.env.broadcast(ZugBroadcast(request=signed))
        # The broadcast does not reach its sender over the network; handle the
        # primary-side logic locally if this node *became* primary meanwhile.
        if self.is_primary:
            self.stats.proposed += 1
            self._propose(signed)

    # -- ln. 25–32: broadcast handling ---------------------------------------------------

    def on_broadcast(self, src: str, broadcast: ZugBroadcast) -> None:
        signed = broadcast.request
        digest = signed.digest
        if self.config.filtering_enabled and self._dedup.in_log(digest):
            self.stats.broadcasts_ignored_logged += 1  # ln. 26–27
            if self.tracer.enabled:
                self.tracer.emit("layer.dedup_drop", self.env.now(), self.id,
                                 where="broadcast", digest=digest.hex())
            return
        if not signed.verify(self.keystore):
            return  # fabricated signature: drop silently
        if not self._limiter.try_acquire(signed.node_id, digest):
            self.stats.broadcasts_rate_limited += 1  # fault case iii
            return
        if self.is_primary:
            if not self.config.filtering_enabled:
                # Ablation mode: propose every received copy unconditionally.
                self.stats.proposed += 1
                self._propose(signed)
                return
            if digest not in self._queue:  # ln. 28–29
                entry = _OpenRequest(
                    request=signed.request,
                    received_at=self.env.now(),
                    source_link=signed.request.source_link,
                    broadcast_origin=signed.node_id,
                )
                self._queue[digest] = entry
                self.stats.proposed += 1
                self._propose(signed)  # propose with the broadcaster's id
            return
        # Backup: ln. 31–32 — arm a hard timeout, relay to the primary.
        entry = self._queue.get(digest)
        if entry is None:
            entry = _OpenRequest(
                request=signed.request,
                received_at=self.env.now(),
                source_link=signed.request.source_link,
                broadcast_origin=signed.node_id,
            )
            self._queue[digest] = entry
        if entry.soft_timer is not None:
            entry.soft_timer.cancel()
            entry.soft_timer = None
        if entry.hard_timer is None:
            entry.hard_timer = self.env.set_timer(
                self.config.hard_timeout_s, lambda: self._hard_timeout(digest)
            )
        self.stats.forwards_sent += 1
        self.env.send(self.primary, ZugForward(request=signed, forwarder_id=self.id))

    def on_forward(self, src: str, forward: ZugForward) -> None:
        """Primary-side handling of relayed broadcasts (same rules as ln. 25+)."""
        self.on_broadcast(src, ZugBroadcast(request=forward.request))

    # -- ln. 33–35: hard timeout -------------------------------------------------------

    def _hard_timeout(self, digest: bytes) -> None:
        entry = self._queue.get(digest)
        if entry is None:
            return
        if self.config.filtering_enabled and self._dedup.in_log(digest):
            return
        self.stats.hard_timeouts += 1
        self.stats.suspicions += 1
        self._suspect_bft()

    # -- ln. 12–20: decide -----------------------------------------------------------

    def on_decide(self, signed: SignedRequest, seq: int) -> None:
        if is_null_request(signed.request):
            # View-change gap filler: consumes the sequence number but must
            # never reach the blockchain (it carries no bus data).
            self.stats.nulls_decided += 1
            return
        digest = signed.digest
        entry = self._queue.pop(digest, None)  # ln. 13–14
        if entry is not None:
            if entry.soft_timer is not None:
                entry.soft_timer.cancel()  # ln. 15–16
            if entry.hard_timer is not None:
                entry.hard_timer.cancel()
        self._limiter.release_digest(digest)
        if self.config.filtering_enabled and self._dedup.in_log(digest):
            # ln. 17–18: a primary that proposes duplicates is faulty.
            self.stats.duplicate_decides += 1
            self.stats.suspicions += 1
            self._suspect_bft()
            return
        self._dedup.record(digest, seq)
        self.stats.logged += 1
        self._on_log(signed, seq)  # ln. 20: log with the origin node's id

    def on_synced(self, signed: SignedRequest, seq: int) -> None:
        """Close out a request adopted via state transfer.

        The request sits in a checkpoint-verified block, so for filtering
        purposes it IS logged: without recording its digest here, a later
        re-proposal of the same content (a new primary re-driving what it
        thought was still open) would pass the duplicate check on this node
        while every live peer skips it — and the next block this node cuts
        would diverge from the group's.
        """
        digest = signed.digest
        entry = self._queue.pop(digest, None)
        if entry is not None:
            if entry.soft_timer is not None:
                entry.soft_timer.cancel()
            if entry.hard_timer is not None:
                entry.hard_timer.cancel()
        self._limiter.release_digest(digest)
        if not self._dedup.in_log(digest):
            self._dedup.record(digest, seq)
            self.stats.synced_recorded += 1

    # -- §III-C optimization: preprepare as early decide indication ---------------------

    def on_preprepare_observed(self, digest: bytes) -> None:
        if not self.config.preprepare_cancels_soft:
            return
        entry = self._queue.get(digest)
        if entry is not None and entry.soft_timer is not None:
            entry.soft_timer.cancel()
            entry.soft_timer = None

    # -- ln. 36–43: new primary -----------------------------------------------------------

    def on_new_primary(self, primary_id: str) -> None:
        self.primary = primary_id
        for digest, entry in list(self._queue.items()):
            if entry.soft_timer is not None:
                entry.soft_timer.cancel()
                entry.soft_timer = None
            if entry.hard_timer is not None:
                entry.hard_timer.cancel()
                entry.hard_timer = None
            if self.is_primary:
                if not self._dedup.in_log(digest):  # ln. 39–41
                    # Signed with our own id whether the request came off our
                    # bus or in a peer's broadcast (``entry.broadcast_origin``):
                    # the original broadcast signature is not stored, so the
                    # new primary vouches with its own id (it did receive it).
                    signed = SignedRequest.create(entry.request, self.id, self.keypair)
                    self.stats.proposed += 1
                    self._propose(signed)
            else:
                entry.soft_timer = self.env.set_timer(  # ln. 43
                    self.config.soft_timeout_s, self._make_soft_cb(digest)
                )

    def _make_soft_cb(self, digest: bytes):
        return lambda: self._soft_timeout(digest)
