"""Cross-runtime Env conformance: one battery, four transports.

Every :class:`~repro.runtime.base.BaseEnv` adapter — the discrete-event
:class:`~repro.runtime.env.SimEnv`, the :class:`~repro.bft.env.RecordingEnv`
test double, the TCP :class:`~repro.runtime.asyncio_runtime.AsyncioEnv`,
and the process-parallel :class:`~repro.runtime.multiprocess.MultiprocessEnv`
— must exhibit identical semantics: broadcast in sorted order excluding
self, canonical ``send_many`` ordering, fire-once timers, monotonic
clocks, and the same counter accounting.  Each test below runs against
all four via a small driver that abstracts "make an env with these
peers", "what got delivered, in order", and "advance time".

The asyncio driver needs no sockets, and the multiprocess driver needs
no child processes: stub writers/channels capture the framed bytes,
which are decoded back through the wire registry — so the battery
exercises the real encode path while staying deterministic.
"""

import asyncio
import random
import time
from dataclasses import asdict

import pytest

from repro.bft.env import RecordingEnv
from repro.bft.messages import Prepare
from repro.crypto import HmacScheme
from repro.obs.causal import CausalContext
from repro.runtime.asyncio_runtime import _CAUSAL_FLAG, AsyncioEnv
from repro.runtime.env import SimEnv
from repro.runtime.multiprocess import MultiprocessEnv
from repro.sim import CostModel, CpuAccount, Kernel, LinkSpec, Network
from repro.util.errors import ProtocolError
from repro.wire import decode_message

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-1")

#: Deliberately unsorted; "node-1" is the env's own id.
NODE_ID = "node-1"
PEERS = ("node-2", "node-0", "node-3", "node-1")
OTHERS = ("node-0", "node-2", "node-3")


def message(seq: int = 1) -> Prepare:
    return Prepare(view=0, seq=seq, digest=b"\x11" * 32, replica_id=NODE_ID).signed(PAIR)


class SimDriver:
    """SimEnv on a jitter-free network; peers record deliveries in order."""

    tick = 1.0

    def __init__(self) -> None:
        self.kernel = Kernel()
        self.network = Network(self.kernel, random.Random(1),
                               LinkSpec(latency_s=1e-4, jitter_s=0.0, bandwidth_bps=100e6))
        self.deliveries: list[tuple[str, object]] = []
        self.ctxs: list[object] = []
        for peer in sorted(PEERS):
            self.network.register(peer, self._sink(peer))
        cpu = CpuAccount(self.kernel, CostModel(), name=NODE_ID)
        self.env = SimEnv(NODE_ID, self.kernel, self.network, cpu, CostModel())

    def _sink(self, peer: str):
        def receive(src: str, payload: object, size: int) -> None:
            self.deliveries.append((peer, payload))
            self.ctxs.append(self.network.inbound_context)
        return receive

    def delivered(self) -> list[tuple[str, object]]:
        return self.deliveries

    def contexts(self) -> list[object]:
        return self.ctxs

    def advance(self, dt: float) -> None:
        self.kernel.run_until(self.kernel.now + dt)

    def make_unreachable(self, peer: str) -> None:
        self.network.crash(peer)

    def close(self) -> None:
        pass


class RecordingDriver:
    """RecordingEnv with explicit peers; ``sent`` is the delivery log."""

    tick = 1.0

    def __init__(self) -> None:
        self.env = RecordingEnv(node_id=NODE_ID, peers=PEERS)

    def delivered(self) -> list[tuple[str, object]]:
        return self.env.sent

    def contexts(self) -> list[object]:
        return list(self.env.sent_ctx)

    def advance(self, dt: float) -> None:
        target = self.env.now() + dt
        while True:
            due = sorted(
                (t for t in self.env.active_timers() if t.deadline <= target),
                key=lambda t: t.deadline,
            )
            if not due:
                break
            self.env._now = max(self.env.now(), due[0].deadline)
            due[0].fire()
        self.env._now = target

    def make_unreachable(self, peer: str) -> None:
        self.env.unreachable.add(peer)

    def close(self) -> None:
        pass


class _StubWriter:
    """Captures framed wire bytes and decodes them back into messages.

    Parses the real frame format including the causal-header extension:
    a set high bit on the length prefix means the frame opens with a
    registry-encoded CausalContext before the message body.
    """

    def __init__(self, peer: str, log: list[tuple[str, object]],
                 ctxs: list[object]) -> None:
        self._peer = peer
        self._log = log
        self._ctxs = ctxs
        self.closing = False

    def write(self, data: bytes) -> None:
        length = int.from_bytes(data[:4], "big")
        frame = data[4:]
        ctx = None
        if length & _CAUSAL_FLAG:
            ctx, consumed = decode_message(frame)
            frame = frame[consumed:]
        decoded, _ = decode_message(frame)
        self._log.append((self._peer, decoded))
        self._ctxs.append(ctx)

    def is_closing(self) -> bool:
        return self.closing


class AsyncioDriver:
    """AsyncioEnv on a private event loop with stub writers (no sockets)."""

    tick = 0.02

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.env = AsyncioEnv(
            NODE_ID, {peer: ("127.0.0.1", 0) for peer in PEERS}, loop=self.loop
        )
        self.deliveries: list[tuple[str, object]] = []
        self.ctxs: list[object] = []
        self.writers: dict[str, _StubWriter] = {}
        for peer in PEERS:
            if peer == NODE_ID:
                continue
            writer = _StubWriter(peer, self.deliveries, self.ctxs)
            self.writers[peer] = writer
            self.env._writers[peer] = writer

    def delivered(self) -> list[tuple[str, object]]:
        return self.deliveries

    def contexts(self) -> list[object]:
        return self.ctxs

    def advance(self, dt: float) -> None:
        # Generous real-time margin: timers in these tests use self.tick,
        # and every advance sleeps several ticks past the deadline.
        self.loop.run_until_complete(asyncio.sleep(dt))

    def make_unreachable(self, peer: str) -> None:
        self.writers[peer].closing = True

    def close(self) -> None:
        self.loop.close()


class _StubChannel:
    """Captures (src, frame, ctx) channel puts and decodes the wire bytes."""

    def __init__(self, peer: str, log: list[tuple[str, object]],
                 ctxs: list[object]) -> None:
        self._peer = peer
        self._log = log
        self._ctxs = ctxs
        self.closed = False

    def put(self, item: tuple[str, bytes, bytes]) -> None:
        _, frame, ctx_bytes = item
        decoded, _ = decode_message(frame)
        self._log.append((self._peer, decoded))
        self._ctxs.append(decode_message(ctx_bytes)[0] if ctx_bytes else None)


class MultiprocessDriver:
    """MultiprocessEnv with stub channels (no child processes)."""

    tick = 0.05

    def __init__(self) -> None:
        self.deliveries: list[tuple[str, object]] = []
        self.ctxs: list[object] = []
        self.channels = {
            peer: _StubChannel(peer, self.deliveries, self.ctxs)
            for peer in PEERS if peer != NODE_ID
        }
        self.env = MultiprocessEnv(NODE_ID, self.channels)

    def delivered(self) -> list[tuple[str, object]]:
        return self.deliveries

    def contexts(self) -> list[object]:
        return self.ctxs

    def advance(self, dt: float) -> None:
        # Real-time margin, as for asyncio: timers use self.tick and every
        # advance sleeps several ticks past the deadline.
        time.sleep(dt)

    def make_unreachable(self, peer: str) -> None:
        self.channels[peer].closed = True

    def close(self) -> None:
        self.env.close()


@pytest.fixture(params=[SimDriver, RecordingDriver, AsyncioDriver,
                        MultiprocessDriver],
                ids=["sim", "recording", "asyncio", "multiprocess"])
def driver(request):
    instance = request.param()
    yield instance
    instance.close()


def test_broadcast_targets_are_sorted_and_exclude_self(driver):
    assert driver.env.broadcast_targets() == OTHERS


def test_broadcast_delivers_in_canonical_order(driver):
    driver.env.broadcast(message())
    driver.advance(driver.tick)
    assert [dst for dst, _ in driver.delivered()] == list(OTHERS)
    assert all(msg == message() for _, msg in driver.delivered())


def test_send_many_canonicalizes_recipient_order(driver):
    driver.env.send_many(("node-3", "node-0"), message())
    driver.advance(driver.tick)
    assert [dst for dst, _ in driver.delivered()] == ["node-0", "node-3"]


def test_send_reaches_exactly_one_recipient(driver):
    driver.env.send("node-2", message(7))
    driver.advance(driver.tick)
    assert [dst for dst, _ in driver.delivered()] == ["node-2"]
    assert driver.delivered()[0][1].seq == 7


def test_counter_accounting_is_identical(driver):
    env = driver.env
    env.send("node-0", message())
    env.broadcast(message(2))
    env.send_many(("node-2", "node-3"), message(3))
    driver.advance(driver.tick)
    assert asdict(env.counters) == {
        "sends": 3,
        "broadcasts": 1,
        "messages_emitted": 6,
        "drops": 0,
        "timers_set": 0,
        "timers_fired": 0,
        "timers_cancelled": 0,
        "decode_errors": 0,
        "oversize_frames": 0,
    }


def test_undeliverable_copies_are_counted_as_drops(driver):
    driver.make_unreachable("node-3")
    driver.env.send("node-3", message())
    driver.env.broadcast(message(2))
    driver.advance(driver.tick)
    assert driver.env.counters.drops == 2
    assert [dst for dst, _ in driver.delivered()] == ["node-0", "node-2"]


def test_timer_fires_once_and_goes_inactive(driver):
    fired: list[int] = []
    timer = driver.env.set_timer(driver.tick, lambda: fired.append(1))
    assert timer.active
    driver.advance(driver.tick * 4)
    assert fired == [1]
    assert not timer.active
    timer.fire()  # transports re-firing a handle must be a no-op
    assert fired == [1]
    assert driver.env.counters.timers_fired == 1


def test_cancelled_timer_never_fires(driver):
    fired: list[int] = []
    timer = driver.env.set_timer(driver.tick, lambda: fired.append(1))
    timer.cancel()
    assert not timer.active
    timer.cancel()  # idempotent
    driver.advance(driver.tick * 4)
    assert fired == []
    assert driver.env.counters.timers_cancelled == 1
    assert driver.env.counters.timers_fired == 0


def test_cancel_after_fire_is_a_no_op(driver):
    timer = driver.env.set_timer(driver.tick, lambda: None)
    driver.advance(driver.tick * 4)
    timer.cancel()
    assert driver.env.counters.timers_fired == 1
    assert driver.env.counters.timers_cancelled == 0


def test_negative_delay_is_rejected(driver):
    with pytest.raises(ProtocolError):
        driver.env.set_timer(-0.5, lambda: None)
    assert driver.env.counters.timers_set == 0


def test_clock_is_monotonic_and_deadlines_are_absolute(driver):
    start = driver.env.now()
    timer = driver.env.set_timer(driver.tick * 2, lambda: None)
    assert timer.deadline >= start + driver.tick * 2 - 1e-9
    driver.advance(driver.tick)
    mid = driver.env.now()
    assert mid >= start
    driver.advance(driver.tick)
    assert driver.env.now() >= mid


# -- causal-conformance battery: identical context propagation everywhere ----


def test_every_emission_is_stamped_with_a_fresh_context(driver):
    # One stamp per emission: a broadcast's copies share one context, and
    # the Lamport clock ticks once per _emit, not per copy.
    driver.env.causal.carry = True
    driver.env.broadcast(message())
    driver.env.send("node-2", message(2))
    driver.advance(driver.tick)
    ctxs = driver.contexts()
    assert len(ctxs) == 4
    assert all(isinstance(ctx, CausalContext) for ctx in ctxs)
    assert ctxs[0] == ctxs[1] == ctxs[2]
    assert ctxs[0] == CausalContext(origin=NODE_ID, lamport=1, parent=-1)
    assert ctxs[3] == CausalContext(origin=NODE_ID, lamport=2, parent=-1)


def test_run_inbound_merges_lamport_and_scopes_the_context(driver):
    driver.env.causal.carry = True
    inbound = CausalContext(origin="node-9", lamport=41, parent=7)
    observed: list[object] = []

    def handler() -> None:
        observed.append(driver.env.causal.inbound)
        driver.env.send("node-0", message(3))

    driver.env.run_inbound(inbound, handler)
    driver.advance(driver.tick)
    # The merge takes max(local, remote) + 1 = 42, then the emission's
    # stamp ticks to 43; the inbound scope is restored afterwards.
    assert observed == [inbound]
    assert driver.env.causal.inbound is None
    assert driver.env.causal.lamport == 43
    assert driver.contexts() == [
        CausalContext(origin=NODE_ID, lamport=43, parent=-1)
    ]


def test_untraced_emissions_still_tick_but_carry_is_off_by_default(driver):
    # The clock always ticks (so traced and untraced runs behave
    # identically), but only in-process envelopes expose the context when
    # carry is off: the framing transports must not grow wire bytes.
    assert driver.env.causal.carry is False
    driver.env.send("node-2", message())
    driver.advance(driver.tick)
    assert driver.env.causal.lamport == 1
    in_process = isinstance(driver, (SimDriver, RecordingDriver))
    expected = CausalContext(origin=NODE_ID, lamport=1, parent=-1) if in_process else None
    assert driver.contexts() == [expected]
