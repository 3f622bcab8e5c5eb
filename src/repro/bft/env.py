"""The sans-IO environment interface protocol state machines run against.

Every protocol component (PBFT replica, ZugChain layer, export handler,
data center) performs all side effects through an :class:`Env`:

* sending and broadcasting messages (``send``, ``send_many``, ``broadcast``),
* arming and cancelling timers,
* reading the clock.

The shared semantics — canonical sorted recipient ordering, broadcast
self-exclusion, fire-once timers, send/drop/timer counters — live in
:class:`repro.runtime.base.BaseEnv`; each runtime (the discrete-event
simulator's :class:`~repro.runtime.env.SimEnv`, the TCP
:class:`~repro.runtime.asyncio_runtime.AsyncioEnv`, and the
:class:`RecordingEnv` test double below) only adapts the transport.
``tests/runtime/test_env_conformance.py`` holds them to one behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Protocol

from repro.obs.causal import CausalContext
from repro.runtime.base import BaseEnv, EnvTimer


class TimerHandle(Protocol):
    """Cancellable fire-once timer."""

    def cancel(self) -> None: ...

    @property
    def active(self) -> bool: ...


class Env(Protocol):
    """Side-effect interface for protocol state machines."""

    @property
    def node_id(self) -> str: ...

    def now(self) -> float: ...

    def send(self, dst: str, message: Any) -> None: ...

    def send_many(self, dsts: Iterable[str], message: Any) -> None: ...

    def broadcast(self, message: Any) -> None: ...

    def set_timer(self, delay: float, callback: Callable[[], None]) -> TimerHandle: ...


class RecordingEnv(BaseEnv):
    """Test double: records sends/broadcasts, exposes timers for manual firing.

    By default the env knows no peers, so ``broadcast`` records the message
    in :attr:`broadcasts` without fanning out copies (the BFT harness does
    its own fan-out).  Pass ``peers`` to exercise the canonical per-recipient
    emission path: each copy then also lands in :attr:`sent`, and node ids
    added to :attr:`unreachable` are dropped and counted instead.
    """

    def __init__(
        self,
        node_id: str = "node-0",
        peers: Iterable[str] = (),
        now: float = 0.0,
    ) -> None:
        super().__init__(node_id)
        self._now = now
        self.peers: tuple[str, ...] = tuple(peers)
        self.unreachable: set[str] = set()
        self.sent: list[tuple[str, Any]] = []
        #: Causal context per recorded copy, parallel to :attr:`sent`
        #: (``sent`` keeps its historical 2-tuple shape for the many tests
        #: that unpack it).
        self.sent_ctx: list[CausalContext] = []
        self.broadcasts: list[Any] = []
        self.timers: list[EnvTimer] = []

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        self._now += dt

    def broadcast(self, message: Any) -> None:
        self.broadcasts.append(message)
        super().broadcast(message)

    # -- transport hooks -----------------------------------------------------

    def _peer_ids(self) -> Iterable[str]:
        return self.peers

    def _transport_emit(
        self, dsts: tuple[str, ...], message: Any, ctx: CausalContext
    ) -> None:
        for dst in dsts:
            if dst in self.unreachable:
                self._note_drop()
            else:
                self.sent.append((dst, message))
                self.sent_ctx.append(ctx)

    def _transport_schedule(self, delay: float, timer: EnvTimer) -> None:
        self.timers.append(timer)
        return None

    # -- test helpers -----------------------------------------------------------

    def active_timers(self) -> list[EnvTimer]:
        return [timer for timer in self.timers if timer.active]

    def fire_next_timer(self) -> None:
        pending = sorted(self.active_timers(), key=lambda t: t.deadline)
        if not pending:
            raise AssertionError("no active timer to fire")
        timer = pending[0]
        self._now = max(self._now, timer.deadline)
        timer.fire()

    def sent_of_type(self, message_type: type) -> list[tuple[str, Any]]:
        return [(dst, msg) for dst, msg in self.sent if isinstance(msg, message_type)]

    def broadcasts_of_type(self, message_type: type) -> list[Any]:
        return [msg for msg in self.broadcasts if isinstance(msg, message_type)]

    def clear(self) -> None:
        self.sent.clear()
        self.sent_ctx.clear()
        self.broadcasts.clear()
