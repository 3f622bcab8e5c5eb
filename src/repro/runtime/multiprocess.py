"""Multiprocess runtime: the same sans-IO nodes, one OS process per node.

The fourth :class:`~repro.runtime.base.BaseEnv` adapter.  Where
:class:`~repro.runtime.asyncio_runtime.AsyncioEnv` multiplexes every node
onto one event loop (concurrent I/O, still one core),
:class:`MultiprocessEnv` gives each node its own Python process: true
parallel execution across cores, with messages crossing process
boundaries as :mod:`repro.wire` frames (the identical tagged encoding
the TCP runtime puts on sockets) over :mod:`multiprocessing` queues.

As everywhere else, the emission semantics — canonical sorted recipient
order, broadcast self-exclusion, fire-once timers, send/drop/timer
counters — come from :class:`~repro.runtime.base.BaseEnv`; this adapter
only supplies the physical half:

* ``_transport_emit`` encodes once and puts one ``(src, frame)`` tuple
  per recipient on that peer's inbox channel, counting a drop per
  closed/unknown channel;
* ``_transport_schedule`` arms a daemon :class:`threading.Timer` — real
  time, like the asyncio adapter, because a process-parallel cluster has
  no shared virtual clock.  Inside a cluster worker the timer does not
  call into the node directly: it *dispatches* the handle onto the
  node's inbox, so protocol code stays single-threaded per node;
* ``now()`` is zero-based monotonic per env, so protocol timestamps stay
  comparable across runtimes.

``tests/runtime/test_env_conformance.py`` runs the shared battery over
this adapter alongside SimEnv / RecordingEnv / AsyncioEnv, and
:class:`MultiprocessCluster` hosts a scenario's nodes across worker
processes for the live driver (``run_scenario(config, "mp", ...)``).
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from multiprocessing import get_context
from typing import Any, Callable, Iterable

from repro.bus.frames import BusCycleData
from repro.obs.causal import CausalContext, merge_shards
from repro.obs.trace import RecordingTracer, Tracer
from repro.runtime.base import BaseEnv, EnvTimer
from repro.runtime.live import (
    POLL_INTERVAL_S,
    SETTLE_CEILING_S,
    NodeFinal,
    node_final,
)
from repro.scenarios.recipe import NodeRecipe, ScenarioConfig
from repro.util.errors import CodecError
from repro.wire import decode_message, encode_message


class QueueChannel:
    """One peer's inbox endpoint: a put-only view of its queue.

    ``closed`` is a local flag, not distributed state — it marks peers
    this process has given up on (crashed worker, shutdown), after which
    emissions to them count as drops, mirroring the TCP adapter's
    ``writer.is_closing()`` check.
    """

    __slots__ = ("queue", "closed")

    def __init__(self, queue: Any) -> None:
        self.queue = queue
        self.closed = False

    def put(self, item: tuple[str, bytes, bytes]) -> None:
        src, frame, ctx_bytes = item
        self.queue.put(("msg", src, frame, ctx_bytes))


class MultiprocessEnv(BaseEnv):
    """Env adapter over per-node inbox channels between processes."""

    def __init__(
        self,
        node_id: str,
        channels: dict[str, QueueChannel],
        timer_dispatch: Callable[[EnvTimer], None] | None = None,
    ) -> None:
        super().__init__(node_id)
        self._channels = dict(channels)
        self._timer_dispatch = timer_dispatch
        self._epoch: float | None = None

    def now(self) -> float:
        if self._epoch is None:
            self._epoch = time.monotonic()
        return time.monotonic() - self._epoch

    # -- transport hooks -----------------------------------------------------

    def _peer_ids(self) -> Iterable[str]:
        return self._channels.keys()

    def _transport_emit(
        self, dsts: tuple[str, ...], message: Any, ctx: CausalContext
    ) -> None:
        if not dsts:
            return
        frame = encode_message(message)
        # The context crosses the process boundary as the queue tuple's
        # third slot — tag-encoded like the TCP frame header, empty
        # when this env does not carry causality (untraced runs pay zero
        # extra bytes).
        ctx_bytes = encode_message(ctx) if self.causal.carry else b""
        for dst in dsts:
            channel = self._channels.get(dst)
            if channel is None or channel.closed:
                self._note_drop()
                continue
            channel.put((self._node_id, frame, ctx_bytes))

    def _transport_schedule(self, delay: float, timer: EnvTimer) -> threading.Timer:
        if self._timer_dispatch is None:
            fire: Callable[[], None] = timer.fire
        else:
            dispatch = self._timer_dispatch
            def fire() -> None:
                dispatch(timer)
        handle = threading.Timer(delay, fire)
        handle.daemon = True
        handle.start()
        return handle

    def _transport_cancel(self, handle: threading.Timer) -> None:
        handle.cancel()

    def close(self) -> None:
        for channel in self._channels.values():
            channel.closed = True


# ---------------------------------------------------------------------------
# Cluster: N recipe-built nodes, one process each, fed by an in-parent bus.
# ---------------------------------------------------------------------------

#: Worker inbox items are tagged tuples:
#:   ("msg", src, frame, ctx)     peer message (tag-encoded) + causal
#:                                context bytes ("" when untraced)
#:   ("cycle", frame)             bus feeder: one wire-encoded BusCycleData
#:   ("report",)                  progress probe → ("report", id, logged)
#:   ("stop",)                    finish → ("final", id, NodeFinal)
#: and a worker that raises sends ("error", id, repr) instead.
#:
#: Timers never cross the mp.Queue (their callbacks are closures, not
#: picklable — and they are same-process anyway): each worker multiplexes
#: its mp inbox and its timer fires through one *local* mailbox, so the
#: node runs strictly single-threaded.


def _worker_main(node_id: str, config: ScenarioConfig, traced: bool,
                 inboxes: dict[str, Any], results: Any) -> None:
    """One node's process: build the stack, drain the inbox, report."""
    try:
        inbox = inboxes[node_id]
        # The single-consumer mailbox: the pump thread forwards mp-inbox
        # items into it, timer fires land in it directly, and the node
        # only ever runs on the loop below — one thread, no data races.
        mailbox: queue.Queue = queue.Queue()

        def pump() -> None:
            while True:
                item = inbox.get()
                mailbox.put(item)
                if item[0] == "stop":
                    return

        threading.Thread(target=pump, daemon=True).start()
        channels = {
            peer: QueueChannel(peer_inbox)
            for peer, peer_inbox in inboxes.items() if peer != node_id
        }
        env = MultiprocessEnv(
            node_id, channels,
            timer_dispatch=lambda timer: mailbox.put(("timer", timer)),
        )
        # Each worker records its own shard; the recipe binds the env's
        # clock, which gives events per-node identity (node#idx) so the
        # parent's merge needs no renumbering of causal references, and
        # makes emissions serialize their context into the queue tuple.
        tracer = RecordingTracer() if traced else None
        node = NodeRecipe(config).build_node(node_id, env, tracer)

        while True:
            item = mailbox.get()
            tag = item[0]
            if tag == "msg":
                _, src, frame, ctx_bytes = item
                try:
                    ctx = None
                    if ctx_bytes:
                        decoded, _ = decode_message(ctx_bytes)
                        if isinstance(decoded, CausalContext):
                            ctx = decoded
                    message, _ = decode_message(frame)
                except CodecError:
                    env.counters.decode_errors += 1
                    continue
                env.run_inbound(ctx, node.handle_message, src, message)
            elif tag == "timer":
                item[1].fire()
            elif tag == "cycle":
                try:
                    cycle = BusCycleData.decode(item[1])
                except CodecError:
                    env.counters.decode_errors += 1
                    continue
                node.on_bus_cycle(cycle)
            elif tag == "report":
                results.put(("report", node_id, node.requests_logged))
            elif tag == "stop":
                # TraceEvents are named tuples of scalars, picklable across
                # the queue by construction, like the rest of the final.
                results.put(("final", node_id, node_final(
                    node, env, tracer.events if tracer is not None else None)))
                return
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        results.put(("error", node_id, repr(exc)))


class MultiprocessCluster:
    """N recipe-built nodes, one OS process each, joined by inbox queues.

    A :class:`~repro.runtime.live.LiveCluster`.  The bus is local to each
    node in the real deployment (every node reads the MVB directly), so
    :meth:`deliver` puts the same wire-encoded cycle on every worker's
    inbox.  Nothing here blocks — the live driver runs it on an event
    loop — except :meth:`join`, which the caller runs after the loop.
    """

    def __init__(self, recipe: NodeRecipe, tracer: Tracer | None = None) -> None:
        self.config = recipe.config
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.ids = recipe.ids
        self._ctx = get_context("fork")
        self.inboxes = {node_id: self._ctx.Queue() for node_id in self.ids}
        self.results = self._ctx.Queue()
        self.processes: dict[str, Any] = {}
        self.errors: dict[str, str] = {}
        self._logged = {node_id: 0 for node_id in self.ids}
        self._finals: dict[str, NodeFinal] = {}

    async def start(self) -> None:
        for node_id in self.ids:
            process = self._ctx.Process(
                target=_worker_main,
                args=(node_id, self.config, self.tracer is not None,
                      self.inboxes, self.results),
                daemon=True,
            )
            process.start()
            self.processes[node_id] = process

    def deliver(self, cycle: BusCycleData) -> None:
        frame = cycle.encode()
        for inbox in self.inboxes.values():
            inbox.put(("cycle", frame))

    def poll(self) -> dict[str, int]:
        """Take in what the workers answered so far, and probe them again."""
        self._drain()
        for inbox in self.inboxes.values():
            inbox.put(("report",))
        return self._logged

    def _drain(self) -> None:
        while True:
            try:
                kind, node_id, value = self.results.get_nowait()
            except queue.Empty:
                return
            if kind == "report":
                self._logged[node_id] = value
            elif kind == "final":
                self._finals[node_id] = value
            elif kind == "error":
                self.errors[node_id] = value

    async def stop(self) -> None:
        """Ask every worker for its final; wait for those that can still send one."""
        for inbox in self.inboxes.values():
            inbox.put(("stop",))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + SETTLE_CEILING_S
        while loop.time() < deadline:
            self._drain()
            if len(self._finals) + len(self.errors) >= len(self.processes):
                break
            await asyncio.sleep(POLL_INTERVAL_S)
        if self.tracer is not None and hasattr(self.tracer, "adopt"):
            self.tracer.adopt(merge_shards(
                {node_id: final.trace for node_id, final in self._finals.items()}))

    def finals(self) -> dict[str, NodeFinal]:
        return {i: self._finals[i] for i in self.ids if i in self._finals}

    def join(self) -> None:
        """Reap the workers (blocking); one that has not exited by now is killed."""
        for process in self.processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
