"""Full ZugChain node assembly.

One node hosts (Fig. 3): the bus receiver, the ZugChain communication
layer, the PBFT replica, the block builder writing the local blockchain,
and (optionally) the replica-side export handler.  The class is runtime-
agnostic — it is driven through ``on_bus_cycle`` and ``handle_message``
and performs all side effects through its :class:`~repro.bft.env.Env`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint
from repro.bft.replica import PbftReplica
from repro.bft.env import Env
from repro.bus.frames import BusCycleData
from repro.bus.nsdb import Nsdb
from repro.bus.reception import BusReceiver
from repro.chain.block import Block
from repro.chain.blockchain import Blockchain
from repro.core.layer import ZugChainConfig, ZugChainLayer
from repro.core.messages import ZugBroadcast, ZugForward
from repro.core.statesync import StateRequest, StateReply, StateSync
from repro.crypto.keys import KeyPair, KeyStore
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.monitor import LatencyRecorder
from repro.util.dispatch import KindMap
from repro.wire.messages import Request, SignedRequest

#: What the node handles itself; the replica's kinds are the backend's own.
_NODE_KINDS = KindMap((ZugBroadcast, ZugForward, StateRequest, StateReply))


class ZugChainNode:
    """A recorder node running the ZugChain stack."""

    def __init__(
        self,
        env: Env,
        bft_config: BftConfig,
        zug_config: ZugChainConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        nsdb: Nsdb,
        chain_id: str = "zugchain",
        on_block: Callable[[Block], None] | None = None,
        replica_cls: type = PbftReplica,
        layer_cls: type = ZugChainLayer,
        block_store=None,
        tracer: Tracer | None = None,
    ) -> None:
        self.env = env
        self.id = env.node_id
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._nsdb = nsdb
        self.receiver = BusReceiver(nsdb)
        self._extra_receivers: dict[str, BusReceiver] = {}
        self.chain = (Blockchain(chain_id=chain_id) if block_store is None
                      else Blockchain.from_store(block_store, chain_id))
        self.latency = LatencyRecorder(name=f"{self.id}.latency")
        self._recv_times: OrderedDict[bytes, float] = OrderedDict()
        self._on_block_cb = on_block or (lambda block: None)

        self.replica = replica_cls(
            env=env,
            config=bft_config,
            keypair=keypair,
            keystore=keystore,
            on_decide=self._decided,
            on_new_primary=self._new_primary,
            on_stable_checkpoint=self._stable_checkpoint,
            on_preprepare_accepted=self._preprepare_accepted,
            tracer=self.tracer,
        )
        self.layer = layer_cls(
            env=env,
            config=zug_config,
            keypair=keypair,
            keystore=keystore,
            propose=self.replica.propose,
            suspect=self.replica.suspect,
            on_log=self._log,
            initial_primary=bft_config.primary_of_view(0),
            tracer=self.tracer,
        )
        from repro.core.blockbuilder import BlockBuilder  # avoid import cycle

        self.builder = BlockBuilder(
            chain=self.chain,
            block_size=bft_config.checkpoint_interval,
            on_block=self._block_built,
            record_checkpoint=self.replica.record_checkpoint,
            now_us=lambda: int(env.now() * 1e6),
        )
        self.export_handler: Any = None  # attached by repro.export
        self.statesync = StateSync(
            env=env,
            bft_config=bft_config,
            keypair=keypair,
            keystore=keystore,
            chain=self.chain,
            replica=self.replica,
            on_fast_forward=self._adopt_blocks,
            tracer=self.tracer,
        )
        self.requests_logged = 0
        if block_store is not None:
            self._restore()

    # -- bus side -----------------------------------------------------------------

    def add_input_source(self, link_name: str, nsdb: Nsdb | None = None) -> BusReceiver:
        """Attach an additional bus link (§III-C "Multiple Input Sources").

        Each link gets its own receiver (and thus its own relevance-filter
        state and request queue identity: the link name is part of every
        request's content digest, so identical data on different buses is
        logged per source).  Returns the receiver; wire its ``on_cycle``
        into the extra bus via :meth:`on_bus_cycle_from`.
        """
        if link_name in self._extra_receivers or link_name == self.receiver.source_link:
            raise ValueError(f"input source {link_name!r} already attached")
        receiver = BusReceiver(nsdb or self._nsdb, source_link=link_name)
        self._extra_receivers[link_name] = receiver
        return receiver

    def on_bus_cycle(self, cycle: BusCycleData) -> None:
        self.on_bus_cycle_from(self.receiver, cycle)

    def on_bus_cycle_from(self, receiver: BusReceiver, cycle: BusCycleData) -> None:
        now_us = int(self.env.now() * 1e6)
        request = receiver.on_cycle(cycle, now_us)
        if request is None:
            return
        self._note_reception(request)
        self.layer.receive(request)

    def inject_request(self, request: Request) -> None:
        """Feed a pre-parsed request directly (tests, secondary links)."""
        self._note_reception(request)
        self.layer.receive(request)

    def _note_reception(self, request: Request) -> None:
        digest = request.digest
        if digest not in self._recv_times:
            self._recv_times[digest] = self.env.now()
            if self.tracer.enabled:
                self.tracer.emit("bus.rx", self.env.now(), self.id,
                                 digest=digest.hex(), link=request.source_link)
            while len(self._recv_times) > 10_000:
                self._recv_times.popitem(last=False)

    # -- network side ---------------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        """Dispatch one incoming consensus-network message.

        The replica's kinds come first: ordering traffic is all but a
        fraction of a percent of what a node ingests.
        """
        replica = self.replica
        kind = replica.KINDS[type(message)]
        if kind is not None:
            if kind is Checkpoint:
                # Lag detection: peers checkpointing far beyond our state.
                self.statesync.observe_checkpoint(src, message)
            replica.on_message(src, message)
            return
        kind = _NODE_KINDS[type(message)]
        if kind is ZugBroadcast:
            self.layer.on_broadcast(src, message)
        elif kind is ZugForward:
            self.layer.on_forward(src, message)
        elif kind is StateRequest:
            self.statesync.handle_request(src, message)
        elif kind is StateReply:
            self.statesync.handle_reply(src, message)
        elif self.export_handler is not None:
            self.export_handler.handle_message(src, message)

    # -- internal upcalls -------------------------------------------------------------

    def _decided(self, signed: SignedRequest, seq: int) -> None:
        self.layer.on_decide(signed, seq)

    def _preprepare_accepted(self, digest: bytes) -> None:
        # §III-C optimization: a preprepare indicates the request will be
        # ordered; cancel its soft timeout early.  The replica invokes this
        # only after the preprepare's signatures checked out — an attacker
        # must not be able to suppress forwarding with a forged preprepare.
        self.layer.on_preprepare_observed(digest)

    def _log(self, signed: SignedRequest, seq: int) -> None:
        received = self._recv_times.pop(signed.digest, None)
        if received is not None:
            self.latency.record(self.env.now(), self.env.now() - received)
        self.requests_logged += 1
        if self.tracer.enabled:
            self.tracer.emit("req.logged", self.env.now(), self.id,
                             digest=signed.digest.hex(), seq=seq)
        self.builder.add(signed, seq)

    def _new_primary(self, primary_id: str) -> None:
        self.layer.on_new_primary(primary_id)

    def _adopt_blocks(self, adopted_blocks) -> None:
        # Blocks this node did not cut (state transfer, its own store) end on
        # a checkpoint's block boundary: the builder's leftovers are inside.
        self.builder._pending.clear()
        # Their requests count as logged for duplicate filtering — otherwise
        # this node would log a later re-proposal that every live peer skips,
        # and the next block it cuts would diverge.
        for block in adopted_blocks:
            for signed in block.requests:
                self.layer.on_synced(signed, block.header.last_sn)

    def _restore(self) -> None:
        """Rejoin after a restart (§V-B, power loss): the chain came back from
        its store; take its blocks as adopted, then fast-forward from the
        stored checkpoint."""
        chain = self.chain
        self._adopt_blocks(chain.blocks_in_range(max(1, chain.base_height), chain.height))
        encoded = chain.store.read_checkpoint()
        if encoded is not None:
            certificate = CheckpointCertificate.decode(encoded)
            if certificate.block_height <= chain.height:
                self.replica.fast_forward(certificate)

    def _stable_checkpoint(self, certificate) -> None:
        # A checkpoint stabilized by peer votes while our execution still
        # has a gap below it: GC just deleted the missing instances, so
        # only a state transfer can resynchronize us.
        if certificate.seq >= self.replica._next_exec:
            self.statesync.sync_from_certificate(certificate)

    def _block_built(self, block: Block) -> None:
        if self.chain.store is not None:
            # The chain persisted the block; the stable checkpoint _restore
            # fast-forwards from goes with it (§V-B).
            certificate = self.replica.latest_stable_checkpoint()
            if certificate is not None:
                self.chain.store.write_checkpoint(certificate.encode())
        if self.export_handler is not None:
            self.export_handler.on_block_created(block)
        self._on_block_cb(block)

    # -- accounting --------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Dynamic memory footprint of the recorder's data structures."""
        return (
            self.layer.queue_size_bytes()
            + self.replica.log_size_bytes()
            + self.chain.total_size_bytes()
            + self.builder.pending_size_bytes()
        )
