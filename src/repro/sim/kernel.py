"""Discrete-event kernel: virtual clock, event heap, cancellable timers.

Events at equal timestamps fire in scheduling order (a monotonically
increasing sequence number breaks heap ties), which makes every run with the
same seed bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.util.errors import ProtocolError


class Timer:
    """A scheduled call and the handle that cancels it.

    ZugChain's communication layer leans heavily on cancellable timers
    (soft/hard timeouts, Alg. 1 lines 11/16/23/31), so cancellation is a
    first-class, O(1) operation here: it marks this entry, which stays in
    the heap as a tombstone until its time comes up.

    The entry holds the callback's arguments, so what a message hop hands
    the kernel is a bound method and a tuple, not a closure made for it.
    """

    __slots__ = ("time", "cancelled", "_callback", "_args", "_kernel")

    def __init__(
        self, kernel: "Kernel", time: float, callback: Callable[..., None], args: tuple
    ) -> None:
        self.time = time
        self.cancelled = False
        self._callback = callback
        self._args = args
        self._kernel: Kernel | None = kernel  # None once fired or cancelled

    @property
    def active(self) -> bool:
        return not self.cancelled

    def cancel(self) -> None:
        self.cancelled = True
        if self._kernel is not None:
            self._kernel._live -= 1
            self._kernel = None


class RepeatingTimer:
    """Handle for a self-rescheduling callback; supports cancellation.

    Link flapping and other periodic fault processes need a timer that
    re-arms itself after every firing; cancellation must also reach the
    *next* underlying one-shot event, so the handle re-targets itself each
    period instead of exposing a single :class:`Timer`.
    """

    __slots__ = ("_kernel", "_interval", "_callback", "_timer", "_cancelled")

    def __init__(
        self, kernel: "Kernel", interval: float, callback: Callable[[], None]
    ) -> None:
        if interval <= 0:
            raise ProtocolError(f"repeating interval must be positive, got {interval}")
        self._kernel = kernel
        self._interval = interval
        self._callback = callback
        self._cancelled = False
        self._timer = kernel.schedule(interval, self._fire)

    @property
    def active(self) -> bool:
        return not self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._timer.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        # Re-arm before the callback so a callback that cancels the handle
        # also kills the event armed here.
        self._timer = self._kernel.schedule(self._interval, self._fire)
        self._callback()


class Kernel:
    """Virtual-time event loop."""

    def __init__(self) -> None:
        #: Current virtual time in seconds.  A plain attribute, not a
        #: property: every send, pipeline submission and timer reads it.
        #: Only the kernel writes it.
        self.now = 0.0
        self._seq = 0
        # (time, seq, timer): seq is unique, so tuple comparison is decided
        # in C before it could reach the timer or its callback.
        self._heap: list[tuple[float, int, Timer]] = []
        self._live = 0  # heap entries not cancelled
        self._events_fired = 0

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        return self._live

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ProtocolError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_repeating(
        self, interval: float, callback: Callable[[], None]
    ) -> RepeatingTimer:
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        return RepeatingTimer(self, interval, callback)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ProtocolError(f"cannot schedule at {time} < now {self.now}")
        timer = Timer(self, time, callback, args)
        heapq.heappush(self._heap, (time, self._seq, timer))
        self._seq += 1
        self._live += 1
        return timer

    def step(self) -> bool:
        """Fire the next event; returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _, timer = heapq.heappop(heap)
            if timer.cancelled:
                continue
            timer._kernel = None
            self._live -= 1
            self.now = time
            self._events_fired += 1
            timer._callback(*timer._args)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Fire all events with time <= ``deadline``; clock ends at deadline.

        Events scheduled exactly at the deadline do fire.
        """
        heap = self._heap
        while heap:
            time, _, timer = heap[0]
            if timer.cancelled:
                heapq.heappop(heap)
                continue
            if time > deadline:
                break
            self.step()
        if deadline > self.now:
            self.now = deadline

    def run(self, max_events: int | None = None) -> None:
        """Drain the event heap (optionally bounded by ``max_events``)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                return
