"""Property-based tests on frame checksums, payload determinism, the cycle
aggregates and the relevance filter (against the implementation it replaced)."""

from hypothesis import given, strategies as st

from repro.bus.frames import MAX_FRAME_DATA_BYTES, BusCycleData, ProcessDataFrame
from repro.bus.nsdb import Nsdb
from repro.bus.reception import RelevanceFilter, decode_cycle_payload, encode_cycle_payload
from repro.bus.signals import SignalDef


@given(
    st.integers(min_value=0, max_value=0xFFF),
    st.binary(min_size=1, max_size=MAX_FRAME_DATA_BYTES),
    st.integers(min_value=0),
)
def test_single_bit_corruption_always_detected(port, data, bit):
    frame = ProcessDataFrame.create(port, data)
    corrupt = frame.corrupted(bit)
    # The additive checksum catches every single-bit data flip.
    assert not corrupt.valid
    assert corrupt.data != frame.data


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFF),
              st.binary(min_size=1, max_size=16)),
    min_size=1, max_size=10, unique_by=lambda t: t[0],
))
def test_payload_roundtrip_and_canonical_order(entries):
    frames = [ProcessDataFrame.create(port, data) for port, data in entries]
    payload = encode_cycle_payload(frames)
    decoded = decode_cycle_payload(payload)
    ports = [port for port, _, _ in decoded]
    assert ports == sorted(ports)
    assert {(p, d) for p, d, _ in decoded} == {(f.port, f.data) for f in frames}


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFF),
              st.binary(min_size=1, max_size=16)),
    min_size=2, max_size=8, unique_by=lambda t: t[0],
))
def test_payload_independent_of_arrival_order(entries):
    # The canonical sort makes the consolidated payload identical no matter
    # the order frames arrived in — required for cross-node dedup.
    frames = [ProcessDataFrame.create(port, data) for port, data in entries]
    forward = encode_cycle_payload(list(frames))
    backward = encode_cycle_payload(list(reversed(frames)))
    assert forward == backward


# -- cycle aggregates: one walk plus algebra -----------------------------------------

_created = st.builds(ProcessDataFrame.create, st.integers(0, 0xFFF),
                     st.binary(max_size=MAX_FRAME_DATA_BYTES))
_mixed_frames = st.lists(st.one_of(
    _created,                                                          # knows its verdict
    st.builds(lambda frame, bit: frame.corrupted(bit), _created, st.integers(0, 255)),
    st.builds(lambda frame: ProcessDataFrame.decode(frame.encode()), _created),
    st.builds(ProcessDataFrame, st.integers(0, 70000), st.binary(max_size=40),
              st.integers(0, 255)),                                    # forged, oversize
), max_size=12)


@given(_mixed_frames)
def test_cycle_aggregates_equal_the_per_frame_sums(frames):
    cycle = BusCycleData(cycle_no=1, timestamp_us=0, frames=tuple(frames))
    for _ in range(2):                                # cold, then from the memo
        assert cycle.wire_size() == sum(frame.wire_size() for frame in frames)
        assert cycle.data_size() == sum(len(frame.data) for frame in frames)
        assert cycle.invalid_frames == sum(1 for frame in frames if not frame.valid)
    assert BusCycleData.decode(cycle.encode()) == cycle


# -- the relevance filter against its reference ---------------------------------------


def _reference_apply(nsdb, last_raw, frames):
    """``RelevanceFilter.apply`` as it was: two catalog questions per frame."""
    last_raw = dict(last_raw)
    retained = []
    for frame in frames:
        port = frame.port
        if nsdb.has_port(port) and nsdb.by_port(port).log_on_change_only:
            if last_raw.get(port) == frame.data:
                continue
            last_raw[port] = frame.data
        retained.append(frame)
    return retained, last_raw


_few_values = st.sampled_from([b"", b"\x00", b"\x01", b"\x00\x01"])     # repeats are likely
_cycles = st.lists(
    st.lists(st.tuples(st.integers(0x100, 0x10B), _few_values), max_size=8),
    min_size=1, max_size=6)


@given(st.dictionaries(st.integers(0x100, 0x107), st.booleans(), max_size=8), _cycles)
def test_relevance_filter_equals_its_reference_on_random_catalogs(catalog, cycles):
    nsdb = Nsdb()
    for port, change_only in catalog.items():
        nsdb.add_signal(SignalDef(f"sig-{port:x}", port=port, width_bytes=2,
                                  log_on_change_only=change_only))
    assert nsdb.change_only_ports == {port for port, flag in catalog.items() if flag}
    relevance = RelevanceFilter(nsdb=nsdb)
    expected_state: dict[int, bytes] = {}
    for entries in cycles:
        frames = tuple(ProcessDataFrame.create(port, data) for port, data in entries)
        before = relevance.last_raw
        snapshot = dict(before)
        expected, expected_state = _reference_apply(nsdb, expected_state, frames)
        retained = relevance.apply(frames)
        assert [id(frame) for frame in retained] == [id(frame) for frame in expected]
        assert relevance.last_raw == expected_state
        # The state is a value: never mutated, replaced only by a cycle that
        # wrote to it (receivers match shared receptions on its identity).
        assert before == snapshot
        wrote = any(frame.port in nsdb.change_only_ports for frame in expected)
        assert (relevance.last_raw is before) == (not wrote)


@given(st.lists(st.tuples(st.integers(0, 0xFFF), st.integers(1, 5), st.booleans()),
                min_size=1, max_size=10, unique_by=lambda entry: entry[0]),
       st.integers(1, 64), st.data())
def test_a_signal_added_after_the_first_poll_is_in_the_next(definitions, cycle_no, data):
    split = data.draw(st.integers(0, len(definitions)))
    nsdb = Nsdb()

    def add(entries):
        for port, period, change_only in entries:
            nsdb.add_signal(SignalDef(f"sig-{port:x}", port=port, width_bytes=1,
                                      period_cycles=period, log_on_change_only=change_only))

    add(definitions[:split])
    nsdb.due_in_cycle(cycle_no)                       # the schedule now exists
    add(definitions[split:])
    by_port = sorted(definitions)
    assert [sig.port for sig in nsdb.all_signals()] == [port for port, _, _ in by_port]
    assert [sig.port for sig in nsdb.due_in_cycle(cycle_no)] == [
        port for port, period, _ in by_port if cycle_no % period == 0]
    assert nsdb.change_only_ports == {port for port, _, flag in by_port if flag}
    nsdb.all_signals().clear()                        # a copy: the catalog keeps its own
    assert len(nsdb.all_signals()) == len(definitions)
