"""Multiprocess runtime: the same sans-IO nodes, one OS process per node.

The fourth :class:`~repro.runtime.base.BaseEnv` adapter.  Where
:class:`~repro.runtime.asyncio_runtime.AsyncioEnv` multiplexes every node
onto one event loop (concurrent I/O, still one core),
:class:`MultiprocessEnv` gives each node its own Python process: true
parallel execution across cores, with messages crossing process
boundaries as :mod:`repro.wire` frames (the identical registry encoding
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
:class:`MultiprocessCluster` drives a full ZugChain consensus workload
across worker processes (``tests/runtime/test_multiprocess_cluster.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from queue import Empty
from typing import Any, Callable, Iterable

import repro.wire.tags  # noqa: F401  (registers all message types)
from repro.obs.causal import CausalContext, merge_shards
from repro.obs.trace import TraceEvent
from repro.runtime.base import BaseEnv, EnvTimer
from repro.util.errors import CodecError
from repro.wire.registry import decode_message, encode_message


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
        #: Inbound frames whose body failed to decode (set by the worker loop).
        self.decode_errors = 0

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
        # third slot — registry-encoded like the TCP frame header, empty
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
# Cluster: N ZugChain nodes, one process each, fed by an in-parent bus.
# ---------------------------------------------------------------------------

#: Worker inbox items are tagged tuples:
#:   ("msg", src, frame, ctx)     peer message (registry-encoded) + causal
#:                                context bytes ("" when untraced)
#:   ("inject", cycle, payload)   bus feeder: one consolidated MVB reading
#:   ("report",)                  progress probe → ("report", id, logged)
#:   ("stop",)                    finish → ("final", id, summary dict)
#:
#: Timers never cross the mp.Queue (their callbacks are closures, not
#: picklable — and they are same-process anyway): each worker multiplexes
#: its mp inbox and its timer fires through one *local* mailbox, so the
#: node runs strictly single-threaded.


@dataclass
class MultiprocessScenarioConfig:
    """Shape of one process-parallel cluster run (mirrors the TCP scenario)."""

    n: int = 4
    cycles: int = 12
    cycle_time_s: float = 0.03
    payload_bytes: int = 64
    block_size: int = 5
    soft_timeout_s: float = 0.5
    hard_timeout_s: float = 0.5
    settle_timeout_s: float = 30.0
    #: Run every worker with a per-process RecordingTracer shard; shards
    #: ride back in the final report and merge deterministically.
    trace: bool = False


@dataclass
class MultiprocessScenarioResult:
    """What a run observed, for CLI reporting and assertions."""

    requests_expected: int
    requests_logged: int              # min over nodes
    chain_heights: dict[str, int] = field(default_factory=dict)
    head_hashes: dict[str, str] = field(default_factory=dict)
    heads_consistent: bool = True
    completed: bool = True
    env_counters: dict[str, dict[str, int]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: Canonical merge of the per-worker trace shards (empty untraced).
    trace_events: list[TraceEvent] = field(default_factory=list)


def _payload(cycle: int, size: int) -> bytes:
    stamp = b"mp-cycle-%d." % cycle
    if len(stamp) >= size:
        return stamp[: max(size, 1)]
    return stamp + b"x" * (size - len(stamp))


def _worker_main(node_id: str, ids: list[str], inboxes: dict[str, Any],
                 results: Any, config: MultiprocessScenarioConfig) -> None:
    """One node's process: build the stack, drain the inbox, report."""
    from repro.bft import BftConfig
    from repro.bus.nsdb import standard_jru_catalog
    from repro.core import ZugChainConfig, ZugChainNode
    from repro.crypto import HmacScheme, KeyStore
    from repro.wire import Request

    import queue as local_queue

    try:
        inbox = inboxes[node_id]
        # The single-consumer mailbox: the pump thread forwards mp-inbox
        # items into it, timer fires land in it directly, and the node
        # only ever runs on the loop below — one thread, no data races.
        mailbox: local_queue.Queue = local_queue.Queue()

        def pump() -> None:
            while True:
                item = inbox.get()
                mailbox.put(item)
                if item[0] == "stop":
                    return

        threading.Thread(target=pump, daemon=True).start()
        channels = {
            peer: QueueChannel(inboxes[peer]) for peer in ids if peer != node_id
        }
        env = MultiprocessEnv(
            node_id, channels,
            timer_dispatch=lambda timer: mailbox.put(("timer", timer)),
        )
        tracer = None
        if config.trace:
            from repro.obs.trace import RecordingTracer

            # Each worker records its own shard; binding the env's clock
            # gives events per-node identity (node#idx) so the parent's
            # merge needs no renumbering of causal references.  carry=True
            # makes emissions serialize their context into the queue tuple.
            tracer = RecordingTracer()
            tracer.bind_clock(node_id, env.causal)
            env.causal.carry = True
        scheme = HmacScheme()
        keystore = KeyStore(scheme=scheme)
        keypairs = {}
        for peer in ids:
            pair = scheme.derive_keypair(peer.encode())
            keypairs[peer] = pair
            keystore.register(peer, pair.public)
        node = ZugChainNode(
            env=env,
            bft_config=BftConfig(
                replica_ids=tuple(ids), checkpoint_interval=config.block_size,
            ),
            zug_config=ZugChainConfig(
                soft_timeout_s=config.soft_timeout_s,
                hard_timeout_s=config.hard_timeout_s,
                checkpoint_interval=config.block_size,
            ),
            keypair=keypairs[node_id],
            keystore=keystore,
            nsdb=standard_jru_catalog(),
            tracer=tracer,
        )

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
                    env.decode_errors += 1
                    continue
                env.run_inbound(ctx, node.handle_message, src, message)
            elif tag == "timer":
                item[1].fire()
            elif tag == "inject":
                _, cycle, payload = item
                node.inject_request(Request(
                    payload=payload,
                    bus_cycle=cycle,
                    recv_timestamp_us=int(cycle * config.cycle_time_s * 1e6),
                ))
            elif tag == "report":
                results.put(("report", node_id, node.requests_logged))
            elif tag == "stop":
                chain = node.chain
                results.put(("final", node_id, {
                    "requests_logged": node.requests_logged,
                    "chain_height": chain.height,
                    "head_hash": chain.head.block_hash.hex() if chain.height > 0 else "",
                    "env_counters": env.counters.snapshot(),
                    # The worker's trace shard rides home with the final
                    # report: TraceEvents are frozen scalar dataclasses,
                    # picklable across the queue by construction.
                    "trace": tracer.events if tracer is not None else [],
                }))
                return
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        results.put(("error", node_id, repr(exc)))


class MultiprocessCluster:
    """N ZugChain nodes, one OS process each, joined by inbox queues.

    The bus is local to each node in the real deployment (every node
    reads the MVB directly), so the parent feeder injects the same
    consolidated reading into every worker's inbox — the multiprocess
    analogue of the TCP scenario's in-process feeder.
    """

    def __init__(self, config: MultiprocessScenarioConfig) -> None:
        self.config = config
        self.ids = [f"node-{i}" for i in range(config.n)]
        self._ctx = get_context("fork")
        self.inboxes = {node_id: self._ctx.Queue() for node_id in self.ids}
        self.results = self._ctx.Queue()
        self.processes: dict[str, Any] = {}

    def start(self) -> None:
        for node_id in self.ids:
            process = self._ctx.Process(
                target=_worker_main,
                args=(node_id, self.ids, self.inboxes, self.results, self.config),
                daemon=True,
            )
            process.start()
            self.processes[node_id] = process

    def run(self) -> MultiprocessScenarioResult:
        """Feed the bus, wait for every node to log every cycle, collect."""
        config = self.config
        self.start()
        try:
            for cycle in range(1, config.cycles + 1):
                payload = _payload(cycle, config.payload_bytes)
                for node_id in self.ids:
                    self.inboxes[node_id].put(("inject", cycle, payload))
                time.sleep(config.cycle_time_s)

            completed = self._wait_logged(config.cycles, config.settle_timeout_s)
            finals, errors = self._stop_and_collect()
        finally:
            self._terminate()

        heights = {i: finals.get(i, {}).get("chain_height", 0) for i in self.ids}
        heads = {i: finals.get(i, {}).get("head_hash", "") for i in self.ids}
        distinct_heads = {h for h in heads.values() if h}
        logged = [finals.get(i, {}).get("requests_logged", 0) for i in self.ids]
        trace_events: list[TraceEvent] = []
        if config.trace:
            trace_events = merge_shards(
                {i: finals.get(i, {}).get("trace", []) for i in self.ids}
            )
        return MultiprocessScenarioResult(
            requests_expected=config.cycles,
            requests_logged=min(logged) if logged else 0,
            chain_heights=heights,
            head_hashes=heads,
            heads_consistent=len(distinct_heads) <= 1,
            completed=completed and not errors,
            env_counters={
                i: finals.get(i, {}).get("env_counters", {}) for i in self.ids
            },
            errors=errors,
            trace_events=trace_events,
        )

    # -- internals -------------------------------------------------------------

    def _wait_logged(self, target: int, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        progress = {node_id: 0 for node_id in self.ids}
        while time.monotonic() < deadline:
            for node_id in self.ids:
                self.inboxes[node_id].put(("report",))
            expected = len(self.ids)
            seen = 0
            while seen < expected and time.monotonic() < deadline:
                try:
                    kind, node_id, value = self.results.get(timeout=1.0)
                except Empty:
                    break
                if kind == "error":
                    return False
                if kind == "report":
                    progress[node_id] = value
                    seen += 1
            if all(count >= target for count in progress.values()):
                return True
            time.sleep(0.05)
        return False

    def _stop_and_collect(self) -> tuple[dict[str, dict], dict[str, str]]:
        for node_id in self.ids:
            self.inboxes[node_id].put(("stop",))
        finals: dict[str, dict] = {}
        errors: dict[str, str] = {}
        deadline = time.monotonic() + self.config.settle_timeout_s
        while len(finals) + len(errors) < len(self.ids) and time.monotonic() < deadline:
            try:
                kind, node_id, value = self.results.get(timeout=1.0)
            except Empty:
                continue
            if kind == "final":
                finals[node_id] = value
            elif kind == "error":
                errors[node_id] = value
        return finals, errors

    def _terminate(self) -> None:
        for process in self.processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)


def run_multiprocess_scenario(
    config: MultiprocessScenarioConfig,
) -> MultiprocessScenarioResult:
    """Run one ZugChain consensus workload with one process per node."""
    return MultiprocessCluster(config).run()
