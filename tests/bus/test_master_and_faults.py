"""Bus master scheduling and reception fault tests."""

import random

import pytest

from repro.bus import (
    BusConfig,
    GeneratorConfig,
    MvbMaster,
    ReceptionFaultConfig,
    ReceptionFaults,
    TrainDynamicsGenerator,
    standard_jru_catalog,
)
from repro.bus.frames import BusCycleData, ProcessDataFrame
from repro.sim import Kernel
from repro.util import ConfigError, RngRegistry


def make_bus(cycle_time=0.064, **gen_kwargs):
    kernel = Kernel()
    rng = RngRegistry(42)
    generator = TrainDynamicsGenerator(standard_jru_catalog(), GeneratorConfig(**gen_kwargs), rng)
    master = MvbMaster(kernel, generator, BusConfig(cycle_time_s=cycle_time), rng)
    return kernel, master


def test_cycle_below_mvb_minimum_rejected():
    with pytest.raises(ConfigError):
        BusConfig(cycle_time_s=0.016)


def test_minimum_can_be_waived_for_experiments():
    assert BusConfig(cycle_time_s=0.016, enforce_minimum=False).cycle_time_s == 0.016


def test_cycles_arrive_at_cycle_period():
    kernel, master = make_bus(cycle_time=0.064)
    arrivals = []
    master.attach("node-0", lambda cycle: arrivals.append((kernel.now, cycle.cycle_no)))
    master.start()
    kernel.run_until(0.064 * 5 + 1e-9)
    assert [no for _, no in arrivals] == [1, 2, 3, 4, 5]
    assert arrivals[0][0] == pytest.approx(0.064)
    assert arrivals[4][0] == pytest.approx(0.320)


def test_all_devices_see_same_cycle_without_faults():
    kernel, master = make_bus()
    seen = {"a": [], "b": []}
    master.attach("a", lambda c: seen["a"].append(c))
    master.attach("b", lambda c: seen["b"].append(c))
    master.start()
    kernel.run_until(1.0)
    assert len(seen["a"]) == len(seen["b"]) > 0
    for ca, cb in zip(seen["a"], seen["b"]):
        assert ca.encode() == cb.encode()


def test_duplicate_attach_rejected():
    _, master = make_bus()
    master.attach("a", lambda c: None)
    with pytest.raises(ConfigError):
        master.attach("a", lambda c: None)


def test_stop_halts_cycles():
    kernel, master = make_bus()
    count = []
    master.attach("a", lambda c: count.append(1))
    master.start()
    kernel.run_until(0.2)
    master.stop()
    seen = len(count)
    kernel.run_until(1.0)
    assert len(count) == seen


def make_cycle(no=1, nframes=3):
    frames = tuple(ProcessDataFrame.create(0x100 + i, bytes([i, no % 256])) for i in range(nframes))
    return BusCycleData(cycle_no=no, timestamp_us=no * 64000, frames=frames)


def test_fault_drop():
    faults = ReceptionFaults(ReceptionFaultConfig(drop_cycle_prob=1.0), random.Random(1))
    assert faults.apply(make_cycle()) == []
    assert faults.cycles_dropped == 1


def test_fault_delay_delivers_with_next_cycle():
    faults = ReceptionFaults(ReceptionFaultConfig(delay_cycle_prob=1.0), random.Random(1))
    assert faults.apply(make_cycle(no=1)) == []
    delivered = faults.apply(make_cycle(no=2))
    # cycle 1 flushed late; cycle 2 itself is also delayed
    assert [c.cycle_no for c in delivered] == [1]
    assert faults.cycles_delayed == 2
    assert [c.cycle_no for c in faults.flush()] == [2]


def test_fault_corrupt_flips_one_bit():
    faults = ReceptionFaults(ReceptionFaultConfig(corrupt_frame_prob=1.0), random.Random(1))
    delivered = faults.apply(make_cycle())
    assert len(delivered) == 1
    assert faults.frames_corrupted == 1
    assert any(not frame.valid for frame in delivered[0].frames)


def test_no_faults_passthrough():
    faults = ReceptionFaults(ReceptionFaultConfig.none(), random.Random(1))
    cycle = make_cycle()
    assert faults.apply(cycle) == [cycle]


def test_per_device_fault_independence():
    kernel, master = make_bus()
    seen = {"good": [], "bad": []}
    master.attach("good", lambda c: seen["good"].append(c))
    master.attach("bad", lambda c: seen["bad"].append(c), ReceptionFaultConfig(drop_cycle_prob=0.5))
    master.start()
    kernel.run_until(0.064 * 200 + 1e-6)
    assert len(seen["good"]) == 200
    assert 40 < len(seen["bad"]) < 160


def test_a_skewed_device_gets_a_held_and_the_current_cycle_in_order_after_the_offset():
    kernel, master = make_bus(cycle_time=0.064)
    arrivals = []
    master.attach("skewed", lambda cycle: arrivals.append((kernel.now, cycle.cycle_no)),
                  ReceptionFaultConfig(delay_cycle_prob=0.5))
    master.set_skew("skewed", 0.010)
    master.start()
    kernel.run_until(0.064 * 200 + 0.010 + 1e-6)
    # Every delivery left the synchronous instant by exactly the offset ...
    for when, _ in arrivals:
        assert (when - 0.010) / 0.064 == pytest.approx(round((when - 0.010) / 0.064))
    # ... and a delayed cycle arrives with its successor, the held one first.
    by_instant = {}
    for when, cycle_no in arrivals:
        by_instant.setdefault(when, []).append(cycle_no)
    pairs = {when: cycles for when, cycles in by_instant.items() if len(cycles) == 2}
    assert len(pairs) > 20
    for when, (held, current) in pairs.items():
        assert held + 1 == current == round((when - 0.010) / 0.064)
    assert [cycle_no for _, cycle_no in arrivals] == sorted(cycle_no for _, cycle_no in arrivals)
    assert master.device_faults("skewed").cycles_delayed > 40


def test_noisy_preset_rates_are_low():
    cfg = ReceptionFaultConfig.noisy()
    assert 0 < cfg.drop_cycle_prob < 0.01
    assert 0 < cfg.corrupt_frame_prob < 0.01
