"""Real-transport runtime: the same sans-IO nodes over asyncio TCP.

The protocol stack (ZugChain layer, PBFT replica, block builder) is the
identical code that runs in the deterministic simulator — only the
:class:`~repro.bft.env.Env` implementation changes.  This runtime exists
to demonstrate that the sans-IO design is deployable: nodes listen on TCP
sockets, messages travel length-prefixed behind the wire tag their class
declares (:func:`repro.wire.encode_message`), and timers come from the event loop.

Emission semantics (sorted recipients, broadcast self-exclusion, drop and
timer counters) come from :class:`~repro.runtime.base.BaseEnv`, so a TCP
broadcast fans out in exactly the order the simulator uses — not dict
insertion order — and undeliverable copies are counted, never silent.

Connections carry a one-line hello (``zc1 <node-id>\\n``) identifying the
sender; message authenticity rests on the protocol-level signatures, as on
the train Ethernet.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.bus.frames import BusCycleData
from repro.obs.causal import CausalContext
from repro.obs.metrics import ClusterMetrics, MetricsRegistry, fold_node
from repro.runtime.base import BaseEnv, EnvTimer
from repro.runtime.live import NodeFinal, node_final
from repro.util.errors import CodecError
from repro.wire import decode_message, encode_message

_HELLO_PREFIX = b"zc1 "
_MAX_FRAME = 64 * 1024 * 1024
#: High bit of the 4-byte length prefix: the frame starts with a causal
#: frame-header extension (a registered CausalContext, self-delimiting via
#: the codec) before the message body.  _MAX_FRAME keeps legitimate
#: lengths well below the flag bit, and untraced runs never set it, so
#: the wire format is byte-identical to the pre-causal one when tracing
#: is off.
_CAUSAL_FLAG = 0x8000_0000


class AsyncioEnv(BaseEnv):
    """Env adapter over asyncio TCP connections.

    The event loop is resolved lazily with ``asyncio.get_running_loop()``
    (or passed explicitly for tests), and ``now()`` reports seconds since
    the env first read the clock — zero-based and monotonic, like the
    simulator's virtual clock, so protocol timestamps are comparable
    across runtimes.
    """

    def __init__(
        self,
        node_id: str,
        peers: dict[str, tuple[str, int]],
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        super().__init__(node_id)
        self._peers = dict(peers)
        self._writers: dict[str, asyncio.StreamWriter] = {}
        # Serializes connect_all against concurrent callers: the dial/hello
        # sequence awaits mid-update, so _writers check-then-set must not
        # interleave (lock construction is loop-free since Python 3.10).
        self._conn_lock = asyncio.Lock()
        self._loop = loop
        self._epoch: float | None = None

    def _running_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    def now(self) -> float:
        loop = self._running_loop()
        if self._epoch is None:
            self._epoch = loop.time()
        return loop.time() - self._epoch

    # -- transport hooks -----------------------------------------------------

    def _peer_ids(self) -> Iterable[str]:
        return self._peers.keys()

    def _transport_emit(
        self, dsts: tuple[str, ...], message: Any, ctx: CausalContext
    ) -> None:
        if not dsts:
            return
        frame = encode_message(message)
        if self.causal.carry:
            frame = encode_message(ctx) + frame
            wire = (len(frame) | _CAUSAL_FLAG).to_bytes(4, "big") + frame
        else:
            wire = len(frame).to_bytes(4, "big") + frame
        for dst in dsts:
            writer = self._writers.get(dst)
            if writer is None or writer.is_closing():
                self._note_drop()
                continue
            writer.write(wire)

    def _transport_schedule(self, delay: float, timer: EnvTimer) -> asyncio.TimerHandle:
        return self._running_loop().call_later(delay, timer.fire)

    def _transport_cancel(self, handle: asyncio.TimerHandle) -> None:
        handle.cancel()

    # -- connections ---------------------------------------------------------

    async def connect_all(self) -> None:
        """Open outgoing connections to every peer (call once all listen).

        Safe to call concurrently: the lock makes the ``peer_id in
        self._writers`` check and the eventual store atomic per call, so
        two racing callers cannot dial the same peer twice.
        """
        async with self._conn_lock:
            for peer_id in sorted(self._peers):
                if peer_id == self._node_id or peer_id in self._writers:
                    continue
                host, port = self._peers[peer_id]
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(_HELLO_PREFIX + self._node_id.encode() + b"\n")
                    await writer.drain()
                except BaseException:
                    # Cancellation or a refused hello must not leak the
                    # half-open socket.
                    writer.close()
                    raise
                self._writers[peer_id] = writer

    async def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()


@dataclass
class _Hosted:
    node: Any
    env: AsyncioEnv
    server: asyncio.AbstractServer


class AsyncioCluster:
    """N ZugChain nodes on localhost TCP, fed by an in-process bus source.

    The bus is local to each node in the real deployment too (every node
    reads the MVB directly), so :meth:`deliver` hands each node the cycle's
    telegrams rather than tunnelling them over TCP.  With ``start``,
    ``poll``, ``stop`` and ``finals`` that makes it a
    :class:`~repro.runtime.live.LiveCluster`.
    """

    def __init__(self, node_factory: Callable[[AsyncioEnv], Any], n: int = 4,
                 host: str = "127.0.0.1", base_port: int = 0) -> None:
        self._factory = node_factory
        self.n = n
        self._host = host
        self._base_port = base_port
        self.hosted: dict[str, _Hosted] = {}
        self.peers: dict[str, tuple[str, int]] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._started = False
        #: Nothing lands here: a handler that raises takes its connection
        #: down, and the run then fails to settle.
        self.errors: dict[str, str] = {}

    async def start(self) -> None:
        # The check-and-set happens before the first await, so it is atomic
        # on the event loop: a second (even concurrent) start() fails fast
        # instead of binding a duplicate server fleet.
        if self._started:
            raise RuntimeError("AsyncioCluster.start() called twice")
        self._started = True
        # Bind servers first (ephemeral ports when base_port == 0), building
        # into locals; the shared maps are published only when complete.
        peers: dict[str, tuple[str, int]] = {}
        hosted: dict[str, _Hosted] = {}
        for index in range(self.n):
            node_id = f"node-{index}"
            env = AsyncioEnv(node_id, peers)  # peers filled in below
            node = self._factory(env)
            server = await asyncio.start_server(
                self._connection_handler(node, env),
                self._host,
                self._base_port + index if self._base_port else 0,
            )
            port = server.sockets[0].getsockname()[1]
            peers[node_id] = (self._host, port)
            hosted[node_id] = _Hosted(node=node, env=env, server=server)
        self.peers.update(peers)
        self.hosted.update(hosted)
        # ... then connect everyone to everyone.
        for node_id, entry in hosted.items():
            entry.env._peers.update(peers)
            await entry.env.connect_all()

    def _connection_handler(self, node, env: AsyncioEnv):
        async def handle_connection(reader: asyncio.StreamReader,
                                    writer: asyncio.StreamWriter):
            task = asyncio.current_task()
            if task is not None:
                self._handler_tasks.add(task)
            try:
                hello = await reader.readline()
                if not hello.startswith(_HELLO_PREFIX):
                    writer.close()
                    return
                src = hello[len(_HELLO_PREFIX):].strip().decode()
                while True:
                    header = await reader.readexactly(4)
                    length = int.from_bytes(header, "big")
                    carries_ctx = bool(length & _CAUSAL_FLAG)
                    length &= ~_CAUSAL_FLAG
                    if length > _MAX_FRAME:
                        # The frame cannot be skipped without reading it, so
                        # the connection is unrecoverable: count and drop it.
                        env.counters.oversize_frames += 1
                        break
                    frame = await reader.readexactly(length)
                    try:
                        ctx = None
                        if carries_ctx:
                            ctx, consumed = decode_message(frame)
                            if not isinstance(ctx, CausalContext):
                                raise CodecError("causal header is not a CausalContext")
                            frame = frame[consumed:]
                        message, _ = decode_message(frame)
                    except CodecError:
                        # The bad frame is fully consumed; later frames on
                        # this stream are still well-delimited.
                        env.counters.decode_errors += 1
                        continue
                    env.run_inbound(ctx, node.handle_message, src, message)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                pass
            except asyncio.CancelledError:
                # Cluster shutdown (stop() cancels handlers); exiting quietly
                # keeps "Exception in callback" noise out of the loop's log.
                pass
            finally:
                if task is not None:
                    self._handler_tasks.discard(task)
                writer.close()
        return handle_connection

    def node(self, node_id: str):
        return self.hosted[node_id].node

    def nodes(self):
        return {node_id: hosted.node for node_id, hosted in self.hosted.items()}

    def envs(self) -> dict[str, AsyncioEnv]:
        return {node_id: hosted.env for node_id, hosted in self.hosted.items()}

    def deliver(self, cycle: BusCycleData) -> None:
        for hosted in self.hosted.values():
            hosted.node.on_bus_cycle(cycle)

    def poll(self) -> dict[str, int]:
        return {node_id: hosted.node.requests_logged
                for node_id, hosted in self.hosted.items()}

    def finals(self) -> dict[str, NodeFinal]:
        return {node_id: node_final(hosted.node, hosted.env)
                for node_id, hosted in self.hosted.items()}

    def aggregate_metrics(self) -> MetricsRegistry:
        """Cluster-level counter fold over every node and its AsyncioEnv.

        Includes the transport's ``env.decode_errors`` (a bad frame body,
        the stream stays aligned) and ``env.oversize_frames`` (a frame over
        the size cap, the connection is dropped), so fault-injection tests
        can assert a bad frame surfaced cluster-wide.
        """
        cluster = ClusterMetrics()
        for node_id, hosted in sorted(self.hosted.items()):
            fold_node(cluster.node(node_id), hosted.node)
        return cluster.aggregate(envs=self.envs())

    async def stop(self) -> None:
        for hosted in self.hosted.values():
            await hosted.env.close()
            hosted.server.close()
            await hosted.server.wait_closed()
        # Server-side handler tasks block in readexactly; reap them here so
        # event-loop teardown never has to cancel lingering tasks.
        tasks = list(self._handler_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
