"""Discrete-event kernel tests: ordering, timers, cancellation, determinism."""

import functools

import pytest

from repro.sim import Kernel
from repro.util import ProtocolError


def test_events_fire_in_time_order():
    kernel = Kernel()
    fired = []
    kernel.schedule(0.3, lambda: fired.append("c"))
    kernel.schedule(0.1, lambda: fired.append("a"))
    kernel.schedule(0.2, lambda: fired.append("b"))
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_in_scheduling_order():
    kernel = Kernel()
    fired = []
    for label in "abcde":
        kernel.schedule(1.0, lambda label=label: fired.append(label))
    kernel.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.5, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [2.5]
    assert kernel.now == 2.5


def test_cancelled_timer_does_not_fire():
    kernel = Kernel()
    fired = []
    timer = kernel.schedule(1.0, lambda: fired.append("x"))
    assert timer.active
    timer.cancel()
    assert not timer.active
    kernel.run()
    assert fired == []


def test_run_until_fires_events_at_deadline_and_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, lambda: fired.append(1))
    kernel.schedule(2.0, lambda: fired.append(2))
    kernel.schedule(3.0, lambda: fired.append(3))
    kernel.run_until(2.0)
    assert fired == [1, 2]
    assert kernel.now == 2.0
    kernel.run_until(5.0)
    assert fired == [1, 2, 3]
    assert kernel.now == 5.0


def test_nested_scheduling_from_callback():
    kernel = Kernel()
    fired = []

    def outer():
        fired.append(("outer", kernel.now))
        kernel.schedule(0.5, lambda: fired.append(("inner", kernel.now)))

    kernel.schedule(1.0, outer)
    kernel.run()
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ProtocolError):
        kernel.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(ProtocolError):
        kernel.schedule_at(0.5, lambda: None)


def test_pending_excludes_cancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    timer = kernel.schedule(2.0, lambda: None)
    timer.cancel()
    assert kernel.pending == 1


def test_step_returns_false_when_empty():
    kernel = Kernel()
    assert kernel.step() is False


def test_run_max_events_bounds_execution():
    kernel = Kernel()
    counter = []

    def reschedule():
        counter.append(1)
        kernel.schedule(1.0, reschedule)

    kernel.schedule(1.0, reschedule)
    kernel.run(max_events=10)
    assert len(counter) == 10


class _Probe:
    def __init__(self, fired):
        self._fired = fired

    def fire(self, label="method"):
        self._fired.append(label)


def test_equal_time_events_with_unorderable_callbacks_fire_in_scheduling_order():
    # Lambdas, bound methods and partials have no ``<``: a heap that ever
    # compared two callbacks would raise TypeError here.
    kernel = Kernel()
    fired = []
    probe = _Probe(fired)
    kernel.schedule_at(1.0, lambda: fired.append("lambda"))
    kernel.schedule_at(1.0, probe.fire)
    kernel.schedule_at(1.0, functools.partial(probe.fire, "partial"))
    kernel.schedule_at(1.0, lambda: fired.append("lambda-2"))
    kernel.run()
    assert fired == ["lambda", "method", "partial", "lambda-2"]
    assert kernel.events_fired == 4


def test_cancelled_head_is_skipped_without_firing_or_counting():
    kernel = Kernel()
    fired = []
    head = kernel.schedule(1.0, lambda: fired.append("head"))
    kernel.schedule(2.0, lambda: fired.append("next"))
    head.cancel()
    kernel.run_until(1.5)
    assert fired == [] and kernel.events_fired == 0 and kernel.now == 1.5
    kernel.run_until(2.0)
    assert fired == ["next"] and kernel.events_fired == 1


def test_pending_follows_schedule_cancel_and_step():
    kernel = Kernel()
    first = kernel.schedule(1.0, lambda: None)
    second = kernel.schedule(2.0, lambda: None)
    kernel.schedule(3.0, lambda: None)
    assert kernel.pending == 3
    second.cancel()
    second.cancel()                 # idempotent
    assert kernel.pending == 2
    assert kernel.step()
    assert kernel.pending == 1
    first.cancel()                  # already fired: nothing left to take back
    assert kernel.pending == 1
    kernel.run()
    assert kernel.pending == 0 and kernel.events_fired == 2


def test_timer_handle_reports_time_and_activity():
    kernel = Kernel()
    timer = kernel.schedule(1.5, lambda: None)
    assert timer.time == 1.5 and timer.active
    kernel.run()
    assert timer.active             # firing does not deactivate, only cancel does
    timer.cancel()
    assert not timer.active


def test_repeating_timer_cancel_reaches_the_armed_event():
    kernel = Kernel()
    ticks = []
    repeating = kernel.schedule_repeating(1.0, lambda: ticks.append(kernel.now))
    kernel.run_until(3.5)
    assert ticks == [1.0, 2.0, 3.0] and repeating.active and kernel.pending == 1
    repeating.cancel()
    assert not repeating.active and kernel.pending == 0
    kernel.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_repeating_timer_cancelled_from_its_own_callback_stops():
    kernel = Kernel()
    ticks = []

    def tick():
        ticks.append(kernel.now)
        if len(ticks) == 2:
            repeating.cancel()

    repeating = kernel.schedule_repeating(0.5, tick)
    kernel.run()
    assert ticks == [0.5, 1.0] and kernel.pending == 0


def test_schedule_and_schedule_at_carry_arguments_to_the_callback():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "delay+arg")
    kernel.schedule_at(2.0, lambda *args: fired.append(args), "at", 2, None)
    kernel.schedule(3.0, lambda: fired.append("delay"))
    kernel.schedule_at(4.0, lambda: fired.append("at"))
    kernel.run()
    assert fired == ["delay+arg", ("at", 2, None), "delay", "at"]


def test_equal_time_events_with_arguments_fire_in_scheduling_order():
    # The arguments ride in the heap entry behind (time, seq): a list, a
    # dict and None have no ``<``, so a heap that reached them would raise.
    kernel = Kernel()
    fired = []
    for args in (([1],), ({"k": 2},), (None,), ([0],)):
        kernel.schedule_at(1.0, fired.append, *args)
    kernel.schedule_at(1.0, lambda: fired.append("no-args"))
    kernel.run()
    assert fired == [[1], {"k": 2}, None, [0], "no-args"]


def test_cancel_before_and_after_fire_keeps_pending_exact():
    kernel = Kernel()
    fired = []
    early = kernel.schedule(1.0, fired.append, "early")
    doomed = kernel.schedule(2.0, fired.append, "doomed")
    kernel.schedule(3.0, fired.append, "late")
    assert kernel.pending == 3
    doomed.cancel()
    doomed.cancel()  # idempotent: one entry, counted out once
    assert kernel.pending == 2 and not doomed.active
    kernel.run_until(1.0)
    assert fired == ["early"] and kernel.pending == 1
    early.cancel()  # already fired: a no-op on the accounting
    assert kernel.pending == 1
    kernel.run()
    assert fired == ["early", "late"] and kernel.pending == 0 and kernel.events_fired == 2


def test_raising_callback_leaves_clock_and_pending_consistent():
    kernel = Kernel()
    fired = []

    def boom(label):
        raise RuntimeError(label)

    kernel.schedule(1.0, boom, "first")
    kernel.schedule(2.0, fired.append, "second")
    with pytest.raises(RuntimeError, match="first"):
        kernel.run()
    # The event that raised is spent: counted, off the heap, clock at its time.
    assert kernel.now == 1.0 and kernel.pending == 1 and kernel.events_fired == 1  # zuglint: disable=DET005
    kernel.run()
    assert fired == ["second"] and kernel.pending == 0


def test_repeating_timer_still_rides_the_same_schedule():
    kernel = Kernel()
    ticks = []
    handle = kernel.schedule_repeating(1.0, lambda: ticks.append(kernel.now))
    kernel.run_until(3.5)
    handle.cancel()
    kernel.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0] and kernel.pending == 0
