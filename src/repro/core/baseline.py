"""The evaluation baseline: PBFT with traditional client handling.

"We compare ZugChain's communication layer with PBFT and traditional
client handling ('baseline'), where each node runs a client and replica
process and every client reads bus data and forwards it to the primary as
a BFT request.  Identical requests are thus ordered up to four times"
(§V-A).

The baseline node hosts a client (submits every bus cycle's request to the
primary, retransmits on timeout) and a replica (orders whatever arrives,
deduplicating only on complete requests including client ids — never on
payloads — exactly PBFT's behaviour).  Backups arm a censorship timer per
client request; on expiry they suspect the primary, which is the
baseline's only view-change trigger (500 ms in Fig. 8).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.bft.client import ClientRequestWrapper, PbftClient, Reply
from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint, Commit, NewView, PrePrepare, Prepare, ViewChange
from repro.bft.replica import PbftReplica
from repro.bft.env import Env
from repro.bus.frames import BusCycleData
from repro.bus.nsdb import Nsdb
from repro.bus.reception import BusReceiver
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.crypto.keys import KeyPair, KeyStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.monitor import LatencyRecorder
from repro.util.dispatch import KindMap
from repro.wire.messages import SignedRequest

_BFT_MESSAGE_TYPES = (PrePrepare, Prepare, Commit, Checkpoint, ViewChange, NewView)
_KINDS = KindMap((ClientRequestWrapper, Reply) + _BFT_MESSAGE_TYPES)


class BaselineNode:
    """One node of the baseline system: client + replica + logging service."""

    def __init__(
        self,
        env: Env,
        bft_config: BftConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        nsdb: Nsdb,
        chain_id: str = "baseline",
        on_block: Callable[[Block], None] | None = None,
        censorship_timeout_s: float | None = None,
        max_client_pending: int = 256,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.id = env.node_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bft_config = bft_config
        self.keystore = keystore
        self.receiver = BusReceiver(nsdb)
        self.chain = Blockchain(chain_id=chain_id)
        self.latency = LatencyRecorder(name=f"{self.id}.latency")
        self._recv_times: OrderedDict[bytes, float] = OrderedDict()
        self._on_block_cb = on_block or (lambda block: None)
        self._censorship_timeout_s = censorship_timeout_s or bft_config.view_change_timeout_s

        self.replica = PbftReplica(
            env=env,
            config=bft_config,
            keypair=keypair,
            keystore=keystore,
            on_decide=self._decided,
            on_new_primary=self._new_primary,
            tracer=self.tracer,
        )
        self.client = PbftClient(
            env=env,
            config=bft_config,
            keypair=keypair,
            keystore=keystore,
            on_complete=self._client_complete,
        )
        from repro.core.blockbuilder import BlockBuilder

        self.builder = BlockBuilder(
            chain=self.chain,
            block_size=bft_config.checkpoint_interval,
            on_block=self._on_block_cb,
            record_checkpoint=self.replica.record_checkpoint,
            now_us=lambda: int(env.now() * 1e6),
        )
        # PBFT-style dedup: (client id, request digest) pairs already
        # proposed or executed — payload-identical requests from different
        # clients are NOT duplicates here, which is the baseline's overhead.
        self._proposed_keys: set[tuple[str, bytes]] = set()
        self._executed_keys: set[tuple[str, bytes]] = set()
        self._censorship_timers: dict[tuple[str, bytes], Any] = {}
        self._max_client_pending = max_client_pending
        self.requests_logged = 0
        self.client_requests_seen = 0
        self.requests_shed = 0

    # -- bus side -------------------------------------------------------------------

    def on_bus_cycle(self, cycle: BusCycleData) -> None:
        now_us = int(self.env.now() * 1e6)
        request = self.receiver.on_cycle(cycle, now_us)
        if request is None:
            return
        if self.client.pending_count >= self._max_client_pending:
            # Finite client buffer: under overload the baseline sheds load
            # ("the baseline cannot keep up ... and requests are dropped",
            # §V-B) rather than growing its timer population without bound.
            self.requests_shed += 1
            return
        digest = request.digest
        if digest not in self._recv_times:
            self._recv_times[digest] = self.env.now()
            if self.tracer.enabled:
                self.tracer.emit("bus.rx", self.env.now(), self.id,
                                 digest=digest.hex(), link=request.source_link)
            while len(self._recv_times) > 10_000:
                self._recv_times.popitem(last=False)
        signed = self.client.submit(request)
        # Client and replica are co-located: the backup replica learns of its
        # own client's request immediately and starts the view-change timer
        # ("the replica starts the timer once it discovers the fault", §V-B).
        if not self.replica.is_primary:
            key = (signed.node_id, signed.digest)
            if key not in self._censorship_timers and key not in self._executed_keys:
                self._censorship_timers[key] = self.env.set_timer(
                    self._effective_censorship_timeout(),
                    lambda: self._censorship_expired(key),
                )

    # -- network side ------------------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        kind = _KINDS[type(message)]
        if kind is ClientRequestWrapper:
            self._on_client_request(src, message)
        elif kind is Reply:
            self.client.on_reply(message)
        elif kind is not None:
            self.replica.on_message(src, message)

    def _on_client_request(self, src: str, wrapper: ClientRequestWrapper) -> None:
        signed = wrapper.request
        if not signed.verify(self.keystore):
            return
        self.client_requests_seen += 1
        key = (signed.node_id, signed.digest)
        if key in self._executed_keys:
            return
        if self.replica.is_primary:
            if key not in self._proposed_keys:
                self._proposed_keys.add(key)
                self.replica.propose(signed)
        else:
            # A broadcast (retransmitted) client request on a backup starts
            # the censorship timer: if the primary never orders it, suspect.
            if key not in self._censorship_timers:
                self._censorship_timers[key] = self.env.set_timer(
                    self._effective_censorship_timeout(),
                    lambda: self._censorship_expired(key),
                )

    def _effective_censorship_timeout(self) -> float:
        """PBFT doubles the view-change timeout with every view (backoff).

        Under sustained overload this is what prevents a view-change
        livelock: after a few changes the timeout exceeds the (growing)
        queueing delay and ordering proceeds — slowly, with ballooning
        queues, which is exactly the collapse Fig. 6/7 show at 32 ms.
        """
        return self._censorship_timeout_s * (2 ** min(self.replica.view, 6))

    def _censorship_expired(self, key: tuple[str, bytes]) -> None:
        self._censorship_timers.pop(key, None)
        if key not in self._executed_keys:
            self.replica.suspect()

    # -- replica upcalls ------------------------------------------------------------------

    def _decided(self, signed: SignedRequest, seq: int) -> None:
        key = (signed.node_id, signed.digest)
        self._executed_keys.add(key)
        self._proposed_keys.add(key)
        timer = self._censorship_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        received = self._recv_times.get(signed.digest)
        if received is not None:
            self.latency.record(self.env.now(), self.env.now() - received)
        self.requests_logged += 1
        if self.tracer.enabled:
            self.tracer.emit("req.logged", self.env.now(), self.id,
                             digest=signed.digest.hex(), seq=seq)
        self.builder.add(signed, seq)
        # PBFT reply to the submitting client.
        reply = Reply(
            seq=seq, digest=signed.digest, client_id=signed.node_id,
            replica_id=self.id,
        ).signed(self.replica.keypair)
        if signed.node_id == self.id:
            self.client.on_reply(reply)
        else:
            self.env.send(signed.node_id, reply)

    def _client_complete(self, signed: SignedRequest, seq: int, latency: float) -> None:
        # Client-side completion is tracked for liveness, not for the latency
        # figures (the paper measures reception-to-commit on the replica).
        pass

    def _new_primary(self, primary_id: str) -> None:
        self.client.note_primary(primary_id)
        # Timers armed under the deposed primary must restart in the new
        # view, otherwise every request pending across the change would
        # immediately depose the new primary as well (PBFT restarts its
        # request timers on entering a view).
        for key, timer in list(self._censorship_timers.items()):
            timer.cancel()
            self._censorship_timers[key] = self.env.set_timer(
                self._effective_censorship_timeout(),
                lambda key=key: self._censorship_expired(key),
            )

    # -- accounting -------------------------------------------------------------------------

    def memory_bytes(self) -> int:
        return (
            self.replica.log_size_bytes()
            + self.chain.total_size_bytes()
            + self.builder.pending_size_bytes()
            + len(self._proposed_keys) * 48
            + len(self._executed_keys) * 48
            + self.client.pending_count * 1200
        )
