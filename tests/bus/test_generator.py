"""Train-dynamics generator tests."""

import dataclasses

import pytest

from repro.bus import GeneratorConfig, Nsdb, TrainDynamicsGenerator, standard_jru_catalog
from repro.bus.generator import FILLER_PORT_BASE
from repro.util import ConfigError, RngRegistry


def make_generator(**kwargs):
    return TrainDynamicsGenerator(
        standard_jru_catalog(),
        GeneratorConfig(**kwargs),
        RngRegistry(42),
    )


def test_train_accelerates_from_standstill():
    gen = make_generator()
    assert gen.speed_kmh == 0.0
    for cycle in range(1, 200):
        gen.signals_for_cycle(cycle, 0.064)
    assert gen.speed_kmh > 0


def test_speed_capped_at_max():
    gen = make_generator(max_speed_kmh=50.0, emergency_brake_prob_per_cycle=0.0)
    for cycle in range(1, 2000):
        gen.signals_for_cycle(cycle, 0.064)
    assert gen.speed_kmh <= 50.0


def test_full_journey_reaches_station_stop():
    gen = make_generator(
        max_speed_kmh=60.0,
        cruise_duration_s=5.0,
        stop_duration_s=5.0,
        emergency_brake_prob_per_cycle=0.0,
        atp_intervention_prob_per_cycle=0.0,
    )
    door_openings = 0
    for cycle in range(1, 4000):
        values = {v.name: v.value for v in gen.signals_for_cycle(cycle, 0.064)}
        if values.get("door_state"):
            door_openings += 1
    assert gen.stops_made >= 1
    assert door_openings > 0  # doors opened while stopped


def test_signals_respect_nsdb_periods():
    gen = make_generator()
    names_c1 = {v.name for v in gen.signals_for_cycle(1, 0.064)}
    assert "speed" in names_c1
    assert "vendor_diagnostics" not in names_c1  # period 4
    names_c4 = {v.name for v in gen.signals_for_cycle(4, 0.064)}
    assert "vendor_diagnostics" in names_c4


def test_padding_reaches_target_payload():
    gen = make_generator(target_payload_bytes=4096)
    cycle = gen.frames_for_cycle(1, 0.064)
    frames = cycle.telegrams()
    assert sum(len(f.data) for f in frames) >= 4096
    assert any(f.port >= FILLER_PORT_BASE for f in frames)
    # The filler is a byte count on the cycle, not listed telegrams.
    assert cycle.padding and all(f.port < FILLER_PORT_BASE for f in cycle.frames)


def test_no_padding_by_default():
    gen = make_generator()
    cycle = gen.frames_for_cycle(1, 0.064)
    assert cycle.padding == 0 and cycle.telegrams() == cycle.frames
    assert all(f.port < FILLER_PORT_BASE for f in cycle.telegrams())


def test_filler_is_deterministic_across_instances():
    a = make_generator(target_payload_bytes=1024).frames_for_cycle(1, 0.064).telegrams()
    b = make_generator(target_payload_bytes=1024).frames_for_cycle(1, 0.064).telegrams()
    assert [f.data for f in a] == [f.data for f in b]


def test_filler_differs_between_cycles():
    gen = make_generator(target_payload_bytes=1024)
    frames1 = [f for f in gen.frames_for_cycle(1, 0.064).telegrams() if f.port >= FILLER_PORT_BASE]
    frames2 = [f for f in gen.frames_for_cycle(2, 0.064).telegrams() if f.port >= FILLER_PORT_BASE]
    assert frames1[0].data != frames2[0].data


def catalog_with_port(name, port):
    catalog = Nsdb()
    for signal in standard_jru_catalog().all_signals():
        if signal.name == name:
            signal = dataclasses.replace(signal, port=port)
        catalog.add_signal(signal)
    return catalog


@pytest.mark.parametrize("port", [FILLER_PORT_BASE, 0xFFF])
def test_a_due_signal_in_the_filler_range_refuses_a_padded_cycle(port):
    catalog = catalog_with_port("speed", port)          # due every cycle
    padded = TrainDynamicsGenerator(
        catalog, GeneratorConfig(target_payload_bytes=1024), RngRegistry(42))
    with pytest.raises(ConfigError, match="filler range"):
        padded.frames_for_cycle(1, 0.064)
    # Without padding there is no filler for the port to collide with.
    for target in (0, 1):
        cycle = TrainDynamicsGenerator(
            catalog, GeneratorConfig(target_payload_bytes=target), RngRegistry(42)
        ).frames_for_cycle(1, 0.064)
        assert cycle.padding == 0 and cycle.frames[-1].port == port


def test_a_signal_just_below_the_filler_range_pads():
    catalog = catalog_with_port("speed", FILLER_PORT_BASE - 1)
    cycle = TrainDynamicsGenerator(
        catalog, GeneratorConfig(target_payload_bytes=1024), RngRegistry(42)
    ).frames_for_cycle(1, 0.064)
    assert cycle.padding and cycle.data_size() == 1024
    ports = [frame.port for frame in cycle.telegrams()]
    assert ports == sorted(ports) and len(set(ports)) == len(ports)


def test_odometer_monotone_while_moving():
    gen = make_generator(emergency_brake_prob_per_cycle=0.0)
    readings = []
    for cycle in range(1, 500):
        values = {v.name: v.value for v in gen.signals_for_cycle(cycle, 0.064)}
        readings.append(values["odometer"])
    assert readings[-1] > readings[0]


def test_emergency_brake_eventually_stops_train():
    gen = make_generator(emergency_brake_prob_per_cycle=0.05)
    saw_emergency = False
    for cycle in range(1, 5000):
        values = {v.name: v.value for v in gen.signals_for_cycle(cycle, 0.064)}
        if values.get("emergency_brake"):
            saw_emergency = True
    assert saw_emergency
