"""Process-data telegram tests."""

import pytest
from hypothesis import given, strategies as st

from repro.bus import BusCycleData, BusReceiver, ProcessDataFrame, standard_jru_catalog
from repro.bus.frames import FILLER_PORT_BASE, FRAME_OVERHEAD_BYTES, MAX_FRAME_DATA_BYTES
from repro.util import CodecError


def test_create_computes_valid_checksum():
    frame = ProcessDataFrame.create(0x100, b"\x01\x02")
    assert frame.valid


def test_oversized_frame_rejected():
    with pytest.raises(CodecError):
        ProcessDataFrame.create(0x100, b"\x00" * (MAX_FRAME_DATA_BYTES + 1))


def test_corruption_invalidates_checksum():
    frame = ProcessDataFrame.create(0x100, b"\x01\x02\x03\x04")
    corrupt = frame.corrupted(bit_index=5)
    assert corrupt.data != frame.data
    assert not corrupt.valid


def test_corrupting_empty_frame_is_noop():
    frame = ProcessDataFrame.create(0x100, b"")
    assert frame.corrupted(3) is frame


def test_wire_size_includes_overhead():
    frame = ProcessDataFrame.create(0x100, b"\x01\x02")
    assert frame.wire_size() == FRAME_OVERHEAD_BYTES + 2


def test_cycle_data_sizes():
    frames = (
        ProcessDataFrame.create(0x100, b"\x01\x02"),
        ProcessDataFrame.create(0x101, b"\x03\x04\x05"),
    )
    cycle = BusCycleData(cycle_no=1, timestamp_us=1000, frames=frames)
    assert cycle.data_size() == 5
    assert cycle.wire_size() == 5 + 2 * FRAME_OVERHEAD_BYTES


def test_cycle_roundtrip():
    frames = tuple(
        ProcessDataFrame.create(0x100 + i, bytes([i] * (i + 1))) for i in range(4)
    )
    cycle = BusCycleData(cycle_no=42, timestamp_us=123456, frames=frames)
    assert BusCycleData.decode(cycle.encode()) == cycle


@given(st.lists(st.binary(min_size=1, max_size=MAX_FRAME_DATA_BYTES), max_size=8))
def test_cycle_roundtrip_property(datas):
    frames = tuple(ProcessDataFrame.create(0x200 + i, d) for i, d in enumerate(datas))
    cycle = BusCycleData(cycle_no=1, timestamp_us=99, frames=frames)
    assert BusCycleData.decode(cycle.encode()) == cycle


# -- padded cycles: the filler is a byte count on the wire ----------------------------


def listed_frames():
    """A few listed telegrams around the filler: a one-byte port, an invalid one."""
    return (
        ProcessDataFrame.create(0x10, b"\x01\x02"),
        ProcessDataFrame.create(0x100, b"\x03\x04\x05").corrupted(4),
        ProcessDataFrame.create(0x7FF, b""),
    )


def reception(cycle):
    request = BusReceiver(standard_jru_catalog()).on_cycle(cycle, 0)
    return request.payload


@pytest.mark.parametrize("padding", [0, 1, 31, 32, 33, 964, 8132])
def test_a_padded_cycle_survives_its_wire_form(padding):
    cycle = BusCycleData(cycle_no=7, timestamp_us=448_000, frames=listed_frames(),
                         padding=padding)
    decoded = BusCycleData.decode(cycle.encode())
    assert decoded == cycle
    assert reception(decoded) == reception(cycle)
    assert decoded.wire_size() == cycle.wire_size()
    assert decoded.data_size() == cycle.data_size() == 5 + padding
    assert decoded.invalid_frames == cycle.invalid_frames == 1
    # The same figures as the cycle with every telegram listed one by one.
    telegrams = cycle.telegrams()
    assert len(telegrams) == 3 + cycle.filler_count
    assert [f.port for f in telegrams[3:]] == list(
        range(FILLER_PORT_BASE, FILLER_PORT_BASE + cycle.filler_count))
    listed = BusCycleData(cycle_no=7, timestamp_us=448_000, frames=telegrams)
    assert reception(listed) == reception(cycle)
    assert listed.wire_size() == cycle.wire_size() == sum(f.wire_size() for f in telegrams)
    assert listed.data_size() == cycle.data_size()
    assert listed.invalid_frames == cycle.invalid_frames


def test_an_8_kib_cycle_is_a_few_bytes_on_the_wire():
    cycle = BusCycleData(cycle_no=7, timestamp_us=448_000, frames=listed_frames(),
                         padding=8132)
    assert len(cycle.encode()) == 26
    listed = BusCycleData(cycle_no=7, timestamp_us=448_000, frames=cycle.telegrams())
    assert len(listed.encode()) == 9565
