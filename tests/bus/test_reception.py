"""BusReceiver and relevance-filter tests."""

import dataclasses
import pickle
import random

import pytest

from repro.bus import BusReceiver, RelevanceFilter, standard_jru_catalog
from repro.bus import reception
from repro.bus.faults import ReceptionFaultConfig, ReceptionFaults
from repro.bus.frames import BusCycleData, ProcessDataFrame
from repro.bus.nsdb import Nsdb
from repro.bus.reception import decode_cycle_payload, encode_cycle_payload


def nsdb():
    return standard_jru_catalog()


def speed_frame(kmh):
    definition = nsdb().signal("speed")
    return ProcessDataFrame.create(definition.port, definition.encode_value(kmh))


def emergency_frame(active):
    definition = nsdb().signal("emergency_brake")
    return ProcessDataFrame.create(definition.port, definition.encode_value(active))


def cycle_of(no, *frames):
    return BusCycleData(cycle_no=no, timestamp_us=no * 64000, frames=tuple(frames))


def test_change_only_signal_suppressed_when_unchanged():
    filt = RelevanceFilter(nsdb=nsdb())
    first = filt.apply((speed_frame(100.0),))
    second = filt.apply((speed_frame(100.0),))
    third = filt.apply((speed_frame(101.0),))
    assert len(first) == 1
    assert second == []
    assert len(third) == 1


def test_always_log_signal_passes_every_cycle():
    filt = RelevanceFilter(nsdb=nsdb())
    assert len(filt.apply((emergency_frame(False),))) == 1
    assert len(filt.apply((emergency_frame(False),))) == 1


def test_unknown_ports_pass_through():
    filt = RelevanceFilter(nsdb=nsdb())
    filler = ProcessDataFrame.create(0x800, b"\x01\x02")
    assert filt.apply((filler,)) == [filler]
    assert filt.apply((filler,)) == [filler]


def test_filter_reset_relogs():
    filt = RelevanceFilter(nsdb=nsdb())
    filt.apply((speed_frame(100.0),))
    filt.reset()
    assert len(filt.apply((speed_frame(100.0),))) == 1


def test_payload_roundtrip_and_port_ordering():
    frames = [
        ProcessDataFrame.create(0x140, b"\x00\x0f"),
        ProcessDataFrame.create(0x100, b"\x01\x02"),
    ]
    payload = encode_cycle_payload(frames)
    entries = decode_cycle_payload(payload)
    assert [port for port, _, _ in entries] == [0x100, 0x140]
    assert all(valid for _, _, valid in entries)


def test_payload_flags_invalid_frames():
    corrupt = ProcessDataFrame.create(0x100, b"\x01\x02").corrupted(0)
    entries = decode_cycle_payload(encode_cycle_payload([corrupt]))
    assert entries[0][2] is False


def test_receiver_builds_request():
    receiver = BusReceiver(nsdb())
    request = receiver.on_cycle(cycle_of(1, speed_frame(100.0), emergency_frame(False)), 64000)
    assert request is not None
    assert request.bus_cycle == 1
    assert request.source_link == "mvb0"
    assert receiver.cycles_seen == 1


def test_receiver_returns_none_when_all_filtered():
    receiver = BusReceiver(nsdb())
    assert receiver.on_cycle(cycle_of(1, speed_frame(100.0)), 64000) is not None
    assert receiver.on_cycle(cycle_of(2, speed_frame(100.0)), 128000) is None
    assert receiver.cycles_empty_after_filter == 1


def test_identical_cycles_give_identical_payloads_across_nodes():
    # Precondition for content-based duplicate filtering (§III-B).
    a = BusReceiver(nsdb())
    b = BusReceiver(nsdb())
    cycle = cycle_of(1, speed_frame(100.0), emergency_frame(False))
    ra = a.on_cycle(cycle, 64000)
    rb = b.on_cycle(cycle, 64017)  # different local reception time
    assert ra.payload == rb.payload
    assert ra.digest == rb.digest


def test_corrupted_reception_diverges():
    a = BusReceiver(nsdb())
    b = BusReceiver(nsdb())
    frame = speed_frame(100.0)
    ra = a.on_cycle(cycle_of(1, frame), 64000)
    rb = b.on_cycle(cycle_of(1, frame.corrupted(3)), 64000)
    assert ra.digest != rb.digest
    assert b.invalid_frames_seen == 1


def test_receiver_counts_invalid_frames():
    receiver = BusReceiver(nsdb())
    receiver.on_cycle(cycle_of(1, emergency_frame(False).corrupted(1)), 64000)
    assert receiver.invalid_frames_seen == 1


# -- one reception per telegram set ---------------------------------------------


@pytest.fixture
def computations(monkeypatch):
    """Counts the calls that do the per-telegram-set work."""
    counts = {"apply": 0, "encode": 0}
    real_apply, real_encode = RelevanceFilter.apply, reception.encode_cycle_payload

    def counting_apply(self, frames):
        counts["apply"] += 1
        return real_apply(self, frames)

    def counting_encode(frames, *padding):
        counts["encode"] += 1
        return real_encode(frames, *padding)

    monkeypatch.setattr(RelevanceFilter, "apply", counting_apply)
    monkeypatch.setattr(reception, "encode_cycle_payload", counting_encode)
    return counts


def payload_ports(request):
    return [port for port, _, _ in decode_cycle_payload(request.payload)]


SPEED, EMERGENCY = 0x100, 0x111


def test_receivers_of_one_cycle_object_share_one_computation(computations):
    catalog = nsdb()
    receivers = [BusReceiver(catalog) for _ in range(4)]
    cycle = cycle_of(1, speed_frame(100.0), emergency_frame(False))
    requests = [receiver.on_cycle(cycle, 64000 + i) for i, receiver in enumerate(receivers)]
    assert computations == {"apply": 1, "encode": 1}
    assert len({request.payload for request in requests}) == 1
    assert len({request.digest for request in requests}) == 1
    assert [request.recv_timestamp_us for request in requests] == [64000, 64001, 64002, 64003]
    # Fully filtered cycles are shared too, and still counted per receiver.
    quiet = cycle_of(2, speed_frame(100.0))
    assert [receiver.on_cycle(quiet, 128000) for receiver in receivers] == [None] * 4
    assert computations == {"apply": 2, "encode": 1}
    assert [receiver.cycles_empty_after_filter for receiver in receivers] == [1] * 4
    assert [receiver.cycles_seen for receiver in receivers] == [2] * 4


def test_equal_but_distinct_cycle_objects_are_each_computed(computations):
    catalog = nsdb()
    receivers = [BusReceiver(catalog) for _ in range(4)]
    requests = [
        receiver.on_cycle(cycle_of(1, speed_frame(100.0), emergency_frame(False)), 64000)
        for receiver in receivers
    ]
    assert computations == {"apply": 4, "encode": 4}
    assert len({request.payload for request in requests}) == 1
    shared = BusReceiver(catalog).on_cycle(
        cycle_of(1, speed_frame(100.0), emergency_frame(False)), 64000)
    assert shared.payload == requests[0].payload


def test_a_skipped_cycle_and_a_fresh_receiver_relog_then_rejoin(computations):
    catalog = nsdb()
    steady, other, skipper = (BusReceiver(catalog) for _ in range(3))
    first = cycle_of(1, speed_frame(100.0), emergency_frame(False))
    for receiver in (steady, other, skipper):
        receiver.on_cycle(first, 64000)
    second = cycle_of(2, speed_frame(101.0), emergency_frame(False))
    for receiver in (steady, other):            # skipper misses this one
        receiver.on_cycle(second, 128000)
    computations.update(apply=0, encode=0)

    third = cycle_of(3, speed_frame(101.0), emergency_frame(False))
    recovered = BusReceiver(catalog)            # what recover_node builds
    in_step = [receiver.on_cycle(third, 192000) for receiver in (steady, other)]
    relogged = [receiver.on_cycle(third, 192000) for receiver in (skipper, recovered)]
    assert [payload_ports(request) for request in in_step] == [[EMERGENCY]] * 2
    assert [payload_ports(request) for request in relogged] == [[SPEED, EMERGENCY]] * 2
    # One computation for the lock-step pair, one each for the two stragglers
    # (their filter states differ from each other: {speed: 100.0} and {}).
    assert computations == {"apply": 3, "encode": 3}

    fourth = cycle_of(4, speed_frame(101.0), emergency_frame(True))
    everyone = (steady, other, skipper, recovered)
    requests = [receiver.on_cycle(fourth, 256000) for receiver in everyone]
    assert computations == {"apply": 4, "encode": 4}
    assert [payload_ports(request) for request in requests] == [[EMERGENCY]] * 4
    assert len({request.digest for request in requests}) == 1


def test_a_late_cycle_still_matches_the_state_it_was_computed_from(computations):
    # ReceptionFaults delays by delivering the held cycle object just before
    # the next one: the late node is one state behind, exactly like the others
    # were when they received it.
    catalog = nsdb()
    on_time, late = BusReceiver(catalog), BusReceiver(catalog)
    first = cycle_of(1, speed_frame(100.0), emergency_frame(False))
    second = cycle_of(2, speed_frame(101.0), emergency_frame(False))
    prompt = [on_time.on_cycle(first, 64000), on_time.on_cycle(second, 128000)]
    delayed = [late.on_cycle(first, 128000), late.on_cycle(second, 128000)]
    assert computations == {"apply": 2, "encode": 2}
    assert [r.digest for r in delayed] == [r.digest for r in prompt]


def test_a_corrupted_copy_diverges_for_its_receiver_only(computations):
    catalog = nsdb()
    intact = [BusReceiver(catalog) for _ in range(3)]
    unlucky = BusReceiver(catalog)
    cycle = cycle_of(1, speed_frame(100.0), emergency_frame(False))
    faults = ReceptionFaults(ReceptionFaultConfig(corrupt_frame_prob=1.0), random.Random(5))
    (copy,) = faults.apply(cycle)
    assert copy is not cycle and faults.frames_corrupted == 1
    clean = [receiver.on_cycle(cycle, 64000) for receiver in intact]
    flagged = unlucky.on_cycle(copy, 64000)
    assert computations == {"apply": 2, "encode": 2}
    assert len({request.payload for request in clean}) == 1
    assert flagged.payload != clean[0].payload and flagged.digest != clean[0].digest
    assert [valid for _, _, valid in decode_cycle_payload(flagged.payload)].count(False) == 1
    assert all(valid for _, _, valid in decode_cycle_payload(clean[0].payload))
    assert unlucky.invalid_frames_seen == 1
    assert [receiver.invalid_frames_seen for receiver in intact] == [0, 0, 0]


@pytest.mark.parametrize("catalog_first", [True, False])
def test_receivers_with_different_nsdbs_never_share(catalog_first, computations):
    cataloged, opaque = BusReceiver(nsdb()), BusReceiver(Nsdb())   # no port known: log all
    order = (cataloged, opaque) if catalog_first else (opaque, cataloged)
    for no in (1, 2):
        cycle = cycle_of(no, speed_frame(100.0))
        results = {receiver: receiver.on_cycle(cycle, no * 64000) for receiver in order}
    assert results[cataloged] is None                    # unchanged speed suppressed
    assert payload_ports(results[opaque]) == [SPEED]     # unknown port always logged
    assert computations["apply"] == 4


def test_input_sources_share_bytes_but_not_requests(computations):
    catalog = nsdb()
    main, extra = BusReceiver(catalog), BusReceiver(catalog, source_link="mvb1")
    cycle = cycle_of(1, speed_frame(100.0))
    a, b = main.on_cycle(cycle, 64000), extra.on_cycle(cycle, 64000)
    assert a.payload == b.payload and computations == {"apply": 1, "encode": 1}
    assert (a.source_link, b.source_link) == ("mvb0", "mvb1")
    assert a.digest != b.digest


def test_reception_memo_changes_nothing_observable_about_the_cycle():
    def fresh():
        return cycle_of(1, speed_frame(100.0), emergency_frame(False).corrupted(1))

    cold, warm = fresh(), fresh()
    BusReceiver(nsdb()).on_cycle(warm, 64000)
    assert (warm.wire_size(), warm.data_size(), warm.invalid_frames) == (13, 3, 1)
    assert set(vars(warm)) > set(vars(cold)), "nothing was memoised"
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert warm.encode() == cold.encode()
    assert BusCycleData.decode(warm.encode()) == cold
    field_names = {field.name for field in dataclasses.fields(cold)}
    for copy in (dataclasses.replace(warm), pickle.loads(pickle.dumps(warm))):
        assert copy == cold and set(vars(copy)) == field_names
        assert (copy.wire_size(), copy.data_size(), copy.invalid_frames) == (13, 3, 1)
    shorter = dataclasses.replace(warm, frames=warm.frames[:1])
    assert (shorter.wire_size(), shorter.data_size(), shorter.invalid_frames) == (7, 2, 0)
