"""The bus generator and payload encoder: same bytes, less work per frame.

``ProcessDataFrame.create`` computes the check sequence once and the frame it
returns already knows it is valid; only a frame whose bytes did not come from
``create`` (corrupted, decoded, ``replace``d) checks them.  The filler
telegrams and ``encode_cycle_payload`` were rewritten for speed; their output
is pinned to digests taken at the commit before the rewrite.  A second
rewrite made the whole front end — generator, filter, encoder, cycle
aggregates — do its per-telegram work once: ``JOURNEY`` pins 600 cycles of it
to the bytes of the commit before, and the work is counted, not timed.  A
third made the filler a byte count on the cycle (``BusCycleData.padding``):
the generator builds no filler telegrams, the encoder writes their entries
from the digests, and ``BusCycleData.telegrams()`` builds them for the rare
caller that needs them one by one; the pins above hold unchanged.
"""

import dataclasses
import hashlib

import pytest

from repro.bus import frames as frames_module
from repro.bus import nsdb as nsdb_module
from repro.bus import reception as reception_module
from repro.bus.frames import BusCycleData, ProcessDataFrame, frame_checksum
from repro.bus.generator import FILLER_PORT_BASE, GeneratorConfig, TrainDynamicsGenerator
from repro.bus.nsdb import standard_jru_catalog
from repro.bus.reception import (
    BusReceiver,
    CyclePayload,
    RelevanceFilter,
    decode_cycle_payload,
    encode_cycle_payload,
)
from repro.bus.signals import SignalDef
from repro.util.rng import RngRegistry
from repro.util.varint import encode_uvarint

#: nbytes -> (frame count, sha256 of the frames' concatenated encodings,
#: sha256 of encode_cycle_payload(frames), payload length), for the filler
#: telegrams of cycle 7 at the commit before the first rewrite.
GOLDEN = {
    0: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d", 1),
    1: (1, "3bfd37f56cb82b4845bc1ac12cef993251bde5defe4fd3ed8bc9428911834e07",
        "eba7fbef933ad9c5cd680b735027c1b7b0c78f0cb5fc31132f73be571913ff03", 6),
    31: (1, "67a25f2e2747c1f4b68d7da0ecaa9c11f27e9fb40dd6b92942a11d2961a21d4e",
         "a38cf5d7cdd807a93c20e7f25321c18f2420aca9501604ef6148cb46aad9fd3b", 36),
    32: (1, "52dd41fb2ee50bde037d556e6aa4c6cf47cf231b873aeb092c614047b8456cbe",
         "5cc9931254958c6284e8c010d5c922266a84ea1fcf6a644d3c307ce3dbee3396", 37),
    33: (2, "e8dd9fd860abb8b5cbb12ccb8b4a558c7e2616b4a156f0199cfbc9c28f1581b5",
         "feae844425490b4eec74ea22e47e24dfbe2c7577fbfb999385723bcaaf2ad998", 42),
    964: (31, "bdf3fd45f7c891b44f19d70c726e818fe91ef3fbdf19cf8e81047c283bc0eeac",
          "da9e9892bb7d198419a651a3faada46d6935da4ae2718a38c57d0d8eb60fc479", 1089),
    8132: (255, "7a1cc754be9244ad12e15b853954f54a5511ec75ca162ba3f3d309e7ab0afa5a",
           "41038de07747f5e5d0950f32ff021abc2077dfe8d5c03107e43e193eaeec7e45", 9154),
}

#: target_payload_bytes -> (sha256 over the 600 payloads
#: ``encode_cycle_payload(filter.apply(frames_for_cycle(c)))`` of cycles 1-600,
#: sha256 of ``BusCycleData.encode()`` of cycle 4, its length), seed 42 at the
#: commit before the second rewrite, where the cycle-4 encoding lists every
#: telegram and has no ``padding`` field.  The journey polls every period,
#: rolls an ATP intervention (cycle 268), emergency-brakes to a stop (276-359)
#: and opens the doors (360).
JOURNEY = {
    0: ("e7feb5cbd16fb61e542df42ada85805f95e5b82ff4beb9bfc6f0e1dcc9133a91",
        "9e28f4b82a6ab5d97265a453a4cbb48d780a7e63374f09608bffe102c304fcda", 112),
    1024: ("5086bed3fdfa9582408264821deecf6112d46538aeb34ea8a762ede337d50088",
           "a40dad62abfd890ac09992d15df4a5291465d5d274c4fbc4c72df126152161b3", 1270),
    8192: ("1da7f03c4f4371fedc9c8ac1d495be1fe029f5a5c76575a404a5247a2cfdfddc",
           "d6bf9194a5e967c8c2b4db4b46e8f21f8d615f11f519012a87f5b6904fd195f2", 9673),
}


def filler(cycle_no, nbytes):
    """The filler telegrams of cycle ``cycle_no`` padded by ``nbytes``."""
    return BusCycleData(cycle_no=cycle_no, timestamp_us=0, frames=(), padding=nbytes).telegrams()


@pytest.fixture
def checksums(monkeypatch):
    """Counts ``frame_checksum`` calls made from the frames module."""
    calls = []
    monkeypatch.setattr(
        frames_module, "frame_checksum",
        lambda port, data: calls.append(port) or frame_checksum(port, data),
    )
    return calls


# -- the validity memo ----------------------------------------------------------


def test_a_created_frame_is_valid_without_a_second_checksum(checksums):
    frame = ProcessDataFrame.create(0x120, b"\x01\x02\x03")
    assert checksums == [0x120]
    assert frame.valid and frame.valid
    assert BusCycleData(cycle_no=1, timestamp_us=0, frames=(frame,)).invalid_frames == 0
    assert encode_cycle_payload([frame]).endswith(b"\x01")
    assert checksums == [0x120]                       # create() was the only sum
    assert frame.checksum == frame_checksum(0x120, b"\x01\x02\x03")


def test_the_verdict_is_not_part_of_the_frame():
    created = ProcessDataFrame.create(0x120, b"\x01\x02\x03")
    plain = ProcessDataFrame(port=0x120, data=b"\x01\x02\x03", checksum=created.checksum)
    assert "valid" in vars(created) and "valid" not in vars(plain)
    assert created == plain and hash(created) == hash(plain) and repr(created) == repr(plain)
    assert created.encode() == plain.encode()
    assert plain.valid


def test_frames_not_made_by_create_check_their_own_bytes(checksums):
    frame = ProcessDataFrame.create(0x120, b"\x01\x02\x03")
    corrupted = frame.corrupted(5)
    decoded = ProcessDataFrame.decode(frame.encode())
    moved = dataclasses.replace(frame, port=0x121)
    stale = dataclasses.replace(frame, data=b"\x01\x02\x04")
    forged = ProcessDataFrame(port=0x120, data=b"\x01\x02\x03", checksum=frame.checksum ^ 1)
    del checksums[:]
    for other in (corrupted, decoded, moved, stale, forged):
        assert "valid" not in vars(other)
    assert [other.valid for other in (corrupted, decoded, moved, stale, forged)] == [
        False, True, False, False, False]
    assert len(checksums) == 5                        # each recomputed, once
    assert [other.valid for other in (corrupted, decoded, moved, stale, forged)] == [
        False, True, False, False, False]
    assert len(checksums) == 5
    cycle = BusCycleData(cycle_no=1, timestamp_us=0, frames=(frame, corrupted, stale))
    assert cycle.invalid_frames == 2
    assert [valid for _, _, valid in decode_cycle_payload(
        encode_cycle_payload([frame, corrupted, stale]))] == [True, False, False]


def test_corrupting_an_empty_frame_keeps_the_frame_and_its_verdict():
    empty = ProcessDataFrame.create(0x7F, b"")
    assert empty.corrupted(3) is empty and empty.valid


# -- byte identity with the parent commit ---------------------------------------------


@pytest.mark.parametrize("nbytes", sorted(GOLDEN))
def test_filler_frames_and_their_payload_are_byte_identical_to_the_parent(nbytes):
    count, frames_digest, payload_digest, payload_len = GOLDEN[nbytes]
    frames = filler(7, nbytes)
    assert len(frames) == count
    assert sum(len(frame.data) for frame in frames) == nbytes
    assert [frame.port for frame in frames] == list(
        range(FILLER_PORT_BASE, FILLER_PORT_BASE + count))
    assert all(frame.valid for frame in frames)
    encoded = b"".join(frame.encode() for frame in frames)
    assert hashlib.sha256(encoded).hexdigest() == frames_digest
    payload = encode_cycle_payload(list(frames))
    assert len(payload) == payload_len
    assert hashlib.sha256(payload).hexdigest() == payload_digest
    assert decode_cycle_payload(payload) == [(f.port, f.data, True) for f in frames]
    # The padded form writes those bytes without building the telegrams.
    assert encode_cycle_payload([], 7, nbytes) == payload


def test_filler_depends_on_the_cycle_and_the_frame_counter_only():
    assert filler(7, 96) == filler(7, 96)
    assert filler(7, 96)[:2] == filler(7, 64)
    assert filler(8, 96) != filler(7, 96)
    # The hashed text is ``filler:<cycle>:<counter>``, counter 11 of cycle 1
    # must not collide with counter 1 of cycle 11.
    assert filler(1, 32 * 12)[11].data != filler(11, 64)[1].data
    expected = hashlib.sha256(b"filler:7:2").digest()
    assert filler(7, 96)[2].data == expected
    assert filler(7, 70)[2].data == expected[:6]


def test_a_mixed_payload_is_byte_identical_to_the_parent():
    # Varint edges the filler never reaches: a one-byte port, a three-byte
    # port, data longer than 127 bytes, an empty frame, an invalid frame.
    frames = list(filler(7, 100))
    frames[1] = frames[1].corrupted(3)
    frames += [
        ProcessDataFrame.create(0x10, b"\x01\x02"),
        ProcessDataFrame(port=70000, data=bytes(range(200)), checksum=0),
        ProcessDataFrame.create(0x7F, b""),
    ]
    payload = encode_cycle_payload(frames)
    assert len(payload) == 331
    assert hashlib.sha256(payload).hexdigest() == (
        "f35b4b313044c6b5a9453d70229c9aef26037eb1d4f95a254b52a5f63467f060")
    assert decode_cycle_payload(payload) == sorted(
        (frame.port, frame.data, frame.valid) for frame in frames)


@pytest.mark.parametrize("target", sorted(JOURNEY))
def test_a_journey_through_the_front_end_is_byte_identical_to_the_parent(target):
    payloads_digest, cycle4_digest, cycle4_len = JOURNEY[target]
    nsdb = standard_jru_catalog()
    generator = TrainDynamicsGenerator(
        nsdb, GeneratorConfig(target_payload_bytes=target), RngRegistry(42))
    relevance = RelevanceFilter(nsdb=nsdb)
    payloads = hashlib.sha256()
    suppressed = 0
    seen = {"atp": False, "emergency": False, "doors": False}
    for cycle_no in range(1, 601):
        cycle = generator.frames_for_cycle(cycle_no, 0.064, timestamp_us=cycle_no * 64000)
        frames = cycle.frames
        if cycle_no == 4:
            # Every telegram listed: that encoding is the checked-in one plus
            # a trailing zero ``padding`` varint.
            encoded = BusCycleData(
                cycle_no=4, timestamp_us=4 * 64000, frames=cycle.telegrams()).encode()
            assert encoded[-1:] == b"\x00"
            assert len(encoded[:-1]) == cycle4_len
            assert hashlib.sha256(encoded[:-1]).hexdigest() == cycle4_digest
        retained = relevance.apply(frames)
        suppressed += len(frames) - len(retained)
        by_port = {frame.port: frame.data for frame in frames}
        seen["atp"] |= by_port[0x130] == b"\x01"
        seen["emergency"] |= by_port[0x111] == b"\x01"
        seen["doors"] |= by_port[0x140] != b"\x00\x00"
        payloads.update(encode_cycle_payload(retained, cycle_no, cycle.padding))
    assert payloads.hexdigest() == payloads_digest
    # What the digest is meant to cover did happen on the way.
    assert all(seen.values()), seen
    assert generator.phase == "stopped" and suppressed > 1000


@pytest.mark.parametrize("target", sorted(JOURNEY))
def test_the_declared_payload_struct_writes_the_journey_byte_for_byte(target):
    # encode_cycle_payload joins cached varints for speed; CyclePayload is the
    # layout it must keep, and what decode_cycle_payload reads.  The struct
    # gets every telegram one by one, the encoder the listed ones and the
    # padding.
    nsdb = standard_jru_catalog()
    generator = TrainDynamicsGenerator(
        nsdb, GeneratorConfig(target_payload_bytes=target), RngRegistry(42))
    relevance, listed = RelevanceFilter(nsdb=nsdb), RelevanceFilter(nsdb=nsdb)
    payloads = hashlib.sha256()
    for cycle_no in range(1, 601):
        cycle = generator.frames_for_cycle(cycle_no, 0.064)
        retained = relevance.apply(cycle.telegrams())
        entries = tuple(sorted(((frame.port, frame.data, frame.valid) for frame in retained),
                               key=lambda entry: entry[0]))
        declared = CyclePayload(entries=entries).encode()
        assert declared == encode_cycle_payload(retained), cycle_no
        assert declared == encode_cycle_payload(
            listed.apply(cycle.frames), cycle_no, cycle.padding), cycle_no
        assert decode_cycle_payload(declared) == list(entries)
        payloads.update(declared)
    assert payloads.hexdigest() == JOURNEY[target][0]


# -- work counted, not timed -----------------------------------------------------


def test_one_bulk_cycle_on_four_receivers_sums_and_encodes_each_telegram_once(
        checksums, monkeypatch):
    varints = []
    monkeypatch.setattr(
        reception_module, "encode_uvarint",
        lambda value: varints.append(value) or encode_uvarint(value))
    # The varint tables are filled on first use, process-wide: count from cold.
    for name in ("_PORT_VARINTS", "_LENGTH_VARINTS"):
        warm = getattr(reception_module, name)
        monkeypatch.setattr(reception_module, name, type(warm)(warm._limit))
    monkeypatch.setattr(reception_module, "_FILLER_HEADS", [])
    nsdb = standard_jru_catalog()
    generator = TrainDynamicsGenerator(
        nsdb, GeneratorConfig(target_payload_bytes=8192), RngRegistry(42))
    receivers = [BusReceiver(nsdb) for _ in range(4)]

    def one_cycle(cycle_no):
        del checksums[:], varints[:]
        cycle = generator.frames_for_cycle(cycle_no, 0.064)
        requests = [receiver.on_cycle(cycle, 64000) for receiver in receivers]
        assert len({request.payload for request in requests}) == 1
        return cycle

    cycle = one_cycle(4)                              # every poll period is due
    assert len(cycle.frames) == 14 and cycle.filler_count == 255
    assert cycle.data_size() == 8192
    assert len(checksums) == 14                       # create(); filler is never summed
    # The frame count, then each distinct port and data length, once; the
    # filler ports go into the head table.
    counted = list(varints)
    telegrams = cycle.telegrams()
    assert len(telegrams) == 269 and sum(len(frame.data) for frame in telegrams) == 8192
    assert cycle.wire_size() == sum(frame.wire_size() for frame in telegrams)
    ports, lengths = {f.port for f in telegrams}, {len(f.data) for f in telegrams}
    assert sorted(counted) == sorted([269, *ports, *lengths])
    assert len(counted) == 1 + 269 + 6

    cycle = one_cycle(8)                              # same ports, warm tables
    assert len(checksums) == 14
    assert len(varints) == 1                          # the frame count alone


def test_the_catalog_is_sorted_once_not_once_per_cycle(monkeypatch):
    sorts = []
    monkeypatch.setattr(
        nsdb_module, "sorted",
        lambda *args, **kwargs: sorts.append(1) or sorted(*args, **kwargs), raising=False)
    nsdb = standard_jru_catalog()
    generator = TrainDynamicsGenerator(nsdb, GeneratorConfig(), RngRegistry(42))
    for cycle_no in range(1, 50):
        generator.frames_for_cycle(cycle_no, 0.064)
    assert nsdb.all_signals() == sorted(nsdb.signals.values(), key=lambda sig: sig.port)
    assert len(sorts) == 1
    nsdb.add_signal(SignalDef("axle_temperature", port=0x0F0, width_bytes=1))
    assert [sig.name for sig in nsdb.due_in_cycle(50)][0] == "axle_temperature"
    assert len(sorts) == 2
