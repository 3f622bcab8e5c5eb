"""Canonical Env core: one emission path shared by every runtime adapter.

The sans-IO design promise (§IV: "only the Env implementation changes"
between the deterministic simulator and a real transport) only holds if
all Env implementations share one set of semantics.  :class:`BaseEnv`
owns exactly that shared half:

* **Emission** — ``send``/``send_many``/``broadcast`` all funnel into
  ``_emit(dsts, message)``, which puts recipients into canonical sorted
  order before the transport sees them.  Broadcast excludes the sender.
  No per-call-site ``sorted()`` is needed (or trusted) anywhere else.
* **Timers** — ``set_timer`` returns a uniform fire-once
  :class:`EnvTimer` (``active`` goes false on fire *or* cancel, firing a
  cancelled timer is a no-op, cancelling twice counts once), regardless
  of how the transport actually schedules the callback.
* **Accounting** — per-env :class:`EnvCounters` for sends, broadcasts,
  emitted copies, transport drops, timer lifecycle events and rejected
  inbound frames, so tests and operators read the same numbers on every
  runtime.

Transports supply only the physical half via four hooks:

=======================  ====================================================
hook                     contract
=======================  ====================================================
``now()``                monotonic clock in seconds, starting near 0
``_peer_ids()``          iterable of known node ids (may include self)
``_transport_emit``      deliver one message to an already-sorted recipient
                         tuple (charge CPU, frame bytes, append to a log);
                         call ``_note_drop()`` per undeliverable copy
``_transport_schedule``  arrange ``timer.fire`` after ``delay`` seconds and
                         return a transport handle (or ``None``);
                         ``_transport_cancel`` receives that handle back
=======================  ====================================================

``tests/runtime/test_env_conformance.py`` runs one shared battery over
every adapter so these semantics cannot drift apart again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.obs.causal import CausalClock, CausalContext
from repro.util.errors import ProtocolError

_PENDING = "pending"
_FIRED = "fired"
_CANCELLED = "cancelled"


@dataclass
class EnvCounters:
    """Per-env emission and timer accounting, identical across runtimes.

    ``sends`` counts recipient slots requested via ``send``/``send_many``
    and ``broadcasts`` counts ``broadcast`` calls; ``messages_emitted``
    counts the per-recipient copies actually handed to the transport, and
    ``drops`` the copies the transport could not deliver (crashed peer,
    missing connection, closing socket).  ``decode_errors`` and
    ``oversize_frames`` count inbound frames a byte transport rejected; they
    stay 0 on the simulator, which hands message objects over directly.
    """

    sends: int = 0
    broadcasts: int = 0
    messages_emitted: int = 0
    drops: int = 0
    timers_set: int = 0
    timers_fired: int = 0
    timers_cancelled: int = 0
    decode_errors: int = 0
    oversize_frames: int = 0


class EnvTimer:
    """Uniform fire-once timer handle.

    The discrete-event kernel's raw :class:`~repro.sim.kernel.Timer`
    stays ``active`` after firing and asyncio's ``TimerHandle`` has no
    liveness query at all; this wrapper gives protocol code one
    semantics everywhere: ``active`` is true exactly while the callback
    is still pending, and exactly one of fire/cancel ever takes effect.
    """

    __slots__ = ("deadline", "_callback", "_env", "_state", "_transport_handle")

    def __init__(self, env: "BaseEnv", deadline: float, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self._callback = callback
        self._env = env
        self._state = _PENDING
        self._transport_handle: Any = None

    @property
    def active(self) -> bool:
        return self._state == _PENDING

    def cancel(self) -> None:
        if self._state != _PENDING:
            return
        self._state = _CANCELLED
        self._env.counters.timers_cancelled += 1
        self._env._forget_timer(self)
        self._env._transport_cancel(self._transport_handle)

    def fire(self) -> None:
        """Run the callback if still pending (transports call this)."""
        if self._state != _PENDING:
            return
        self._state = _FIRED
        self._env.counters.timers_fired += 1
        self._env._forget_timer(self)
        self._callback()


class BaseEnv:
    """Shared Env semantics; subclasses are thin transport adapters."""

    def __init__(self, node_id: str) -> None:
        self._node_id = node_id
        self.counters = EnvCounters()
        #: The env's causal clock.  It always ticks — traced or not — so
        #: enabling tracing never changes anything protocol code can see;
        #: only the emission funnel and ``run_inbound`` may mutate it
        #: (enforced by zuglint DET008 outside the runtime layer).
        self.causal = CausalClock(node_id)
        #: Timers armed but not yet fired/cancelled.  Tracked so a fail-stop
        #: crash can tear down *everything* a dead node incarnation armed
        #: (``cancel_all_timers``) — a ghost timer firing into discarded
        #: protocol state would be a liveness bug the real system cannot have.
        self._active_timers: set[EnvTimer] = set()

    @property
    def node_id(self) -> str:
        return self._node_id

    def bind_tracer(self, tracer: Any) -> None:
        """Give this node's trace events causal identity (``node#idx``, cause).

        Binding the clock is what turns causal annotation on for a node, and
        ``carry`` makes a serializing transport put each emission's context
        in its envelope (in-process transports always hand it over).  A
        disabled tracer, or one that keeps no clocks, binds nothing.
        """
        if tracer.enabled and hasattr(tracer, "bind_clock"):
            tracer.bind_clock(self._node_id, self.causal)
            self.causal.carry = True

    # -- emission (canonical path) ------------------------------------------

    def send(self, dst: str, message: Any) -> None:
        """Send ``message`` to one recipient."""
        self.counters.sends += 1
        self._emit((dst,), message)

    def send_many(self, dsts: Iterable[str], message: Any) -> None:
        """Send one message to several recipients in canonical order.

        The transport sees a single emission (one signing charge, one
        frame encoding) fanned out to ``sorted(dsts)`` — use this for
        recipient loops like the data center's read/delete rounds so the
        ordering and accounting live here, not at the call site.
        """
        targets = tuple(dsts)
        self.counters.sends += len(targets)
        self._emit(targets, message)

    def broadcast(self, message: Any) -> None:
        """Send ``message`` to every known peer except this node."""
        self.counters.broadcasts += 1
        self._emit(self._other_peers(), message)

    def broadcast_targets(self) -> tuple[str, ...]:
        """Canonical broadcast recipients: sorted peers, self excluded.

        What a broadcast reaches, for tests and tools; ``broadcast`` itself
        hands ``_emit`` the unsorted peers, so an emission sorts once.
        """
        return tuple(sorted(self._other_peers()))

    def _other_peers(self) -> list[str]:
        return [peer for peer in self._peer_ids() if peer != self._node_id]

    def _emit(self, dsts: Iterable[str], message: Any) -> None:
        """The single funnel every outbound message passes through.

        Every emission is stamped with a :class:`CausalContext` here —
        the only place contexts are minted — and the transport carries it
        in its envelope (never the wire body for in-process runtimes; an
        optional frame-header extension for TCP and multiprocess).
        """
        canonical = tuple(sorted(dsts))
        self.counters.messages_emitted += len(canonical)
        self._transport_emit(canonical, message, self.causal.stamp())

    def run_inbound(self, ctx: CausalContext | None, fn: Callable[..., None], *args: Any) -> None:
        """Run an inbound-message handler, ``fn(*args)``, under its causal context.

        Merges the sender's Lamport clock and scopes ``ctx`` as the
        current inbound context so events recorded during ``fn`` — and
        contexts stamped onto messages it emits — are causally linked to
        the delivery.  Transports call this around ``handle_message``.
        """
        clock = self.causal
        if ctx is not None:
            clock.merge(ctx)
        previous = clock.inbound
        clock.inbound = ctx
        try:
            fn(*args)
        finally:
            clock.inbound = previous

    # -- timers --------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> EnvTimer:
        """Arm ``callback`` to run after ``delay`` seconds; returns a handle."""
        if delay < 0:
            raise ProtocolError(f"cannot arm a timer into the past (delay={delay})")
        timer = EnvTimer(self, self.now() + delay, callback)
        self.counters.timers_set += 1
        self._active_timers.add(timer)
        timer._transport_handle = self._transport_schedule(delay, timer)
        return timer

    def _forget_timer(self, timer: EnvTimer) -> None:
        self._active_timers.discard(timer)

    def cancel_all_timers(self) -> int:
        """Cancel every pending timer; returns how many were cancelled.

        Part of fail-stop semantics: when a node crashes, its armed
        timeouts (view-change escalation, soft/hard forwarding, sync
        retries) die with it.
        """
        pending = list(self._active_timers)
        for timer in pending:
            timer.cancel()
        return len(pending)

    def _note_drop(self) -> None:
        """Transports report each undeliverable copy here."""
        self.counters.drops += 1

    # -- transport adapter hooks ---------------------------------------------

    def now(self) -> float:
        raise NotImplementedError

    def _peer_ids(self) -> Iterable[str]:
        """Known node ids (self may be included; broadcast filters it)."""
        raise NotImplementedError

    def _transport_emit(
        self, dsts: tuple[str, ...], message: Any, ctx: CausalContext
    ) -> None:
        """Deliver ``message`` to each of the already-sorted ``dsts``.

        ``ctx`` is the emission's causal context; transports propagate it
        in their envelope (closure capture, frame header, queue slot) and
        surface it to the receiver's ``run_inbound``.
        """
        raise NotImplementedError

    def _transport_schedule(self, delay: float, timer: EnvTimer) -> Any:
        """Arrange for ``timer.fire`` to run after ``delay`` seconds."""
        raise NotImplementedError

    def _transport_cancel(self, handle: Any) -> None:
        """Undo ``_transport_schedule``; default assumes fire() guards."""
