"""Per-node bus reception: parse, filter for relevance, build requests.

"Nodes receive, parse, and filter the data according to relevance and for
higher efficiency as is common practice in JRUs, e.g., to log the speed
only upon changes" (§III-A).  The transformation is deterministic, so
correct nodes observing identical telegrams produce byte-identical request
payloads — the precondition for content-based duplicate filtering.

Frames with a failed check sequence are *still logged* (flagged), matching
the JRU's obligation to record what was on the bus; their payload then
legitimately diverges between nodes, and the communication layer logs each
divergent observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.bus.frames import (
    FILLER_PORT_BASE,
    MAX_FRAME_DATA_BYTES,
    BusCycleData,
    ProcessDataFrame,
    filler_data,
)
from repro.bus.nsdb import Nsdb
from repro.util.varint import encode_uvarint
from repro.wire.codec import WireStruct
from repro.wire.messages import Request

#: Where a :class:`BusCycleData` instance keeps the reception results
#: computed from it, in its ``__dict__`` like the size memo: not a field, so
#: invisible to ``==``/``hash``/``repr``/``encode()`` and absent from copies.
_RECEPTIONS_MEMO = "_receptions"


@dataclass
class RelevanceFilter:
    """Suppresses unchanged samples of change-only signals.

    Signals outside the NSDB (e.g. filler complement) and signals marked
    ``log_on_change_only=False`` always pass.  State is per node: a node
    that missed a cycle simply re-logs the next sample.

    ``last_raw`` is a value: ``apply`` and ``reset`` replace the mapping and
    never mutate it, so nodes that have seen the same telegrams can hold the
    same object and :class:`BusReceiver` can key a shared result on it.
    """

    nsdb: Nsdb
    last_raw: dict[int, bytes] = field(default_factory=dict)

    def apply(self, frames: tuple[ProcessDataFrame, ...]) -> list[ProcessDataFrame]:
        change_only = self.nsdb.change_only_ports
        last_raw = self.last_raw
        retained: list[ProcessDataFrame] = []
        for frame in frames:
            port = frame.port
            if port in change_only:
                if last_raw.get(port) == frame.data:
                    continue
                if last_raw is self.last_raw:
                    last_raw = dict(last_raw)
                last_raw[port] = frame.data
            retained.append(frame)
        self.last_raw = last_raw
        return retained

    def reset(self) -> None:
        self.last_raw = {}


class _SmallVarints(dict):
    """``encode_uvarint`` of the values below ``limit``, each encoded on first use.

    An entry head is ``uvarint(port) ‖ uvarint(len)``, and both range over
    small spaces (the 12-bit port space, the telegram data lengths), so a
    payload looks its varints up instead of calling the encoder three times
    per telegram.  Anything outside the range is encoded and not kept.
    """

    def __init__(self, limit: int) -> None:
        self._limit = limit

    def __missing__(self, value: int) -> bytes:
        encoded = encode_uvarint(value)
        if value < self._limit:
            self[value] = encoded
        return encoded


_PORT_VARINTS = _SmallVarints(0x1000)
_LENGTH_VARINTS = _SmallVarints(MAX_FRAME_DATA_BYTES + 1)


#: Entry heads of the full filler telegrams, ``uvarint(FILLER_PORT_BASE + k) ‖
#: uvarint(32)`` at index ``k``; grown by :func:`_filler_heads`.
_FILLER_HEADS: list[bytes] = []


def _filler_heads(count: int) -> list[bytes]:
    """``_FILLER_HEADS``, holding at least the first ``count`` heads."""
    heads = _FILLER_HEADS
    while len(heads) < count:
        heads.append(_PORT_VARINTS[FILLER_PORT_BASE + len(heads)]
                     + _LENGTH_VARINTS[MAX_FRAME_DATA_BYTES])
    return heads


@dataclass(frozen=True)
class CyclePayload(WireStruct):
    """A request's payload: one ``(port, data, valid)`` per retained telegram, by port."""

    entries: tuple[tuple[int, bytes, bool], ...]


def encode_cycle_payload(frames: list[ProcessDataFrame], cycle_no: int = 0,
                         padding: int = 0) -> bytes:
    """``CyclePayload`` of ``frames`` sorted by port, then ``padding`` bytes of filler.

    The same bytes as ``CyclePayload(...).encode()`` of every telegram, filler
    included (see ``BusCycleData.telegrams``), without building the entries or
    the filler telegrams: this runs once per retained telegram on every bus
    cycle.  Filler ports follow every listed port, which the generator checks.
    """
    ports, lengths = _PORT_VARINTS, _LENGTH_VARINTS
    filler = filler_data(cycle_no, padding) if padding else ()
    parts = [encode_uvarint(len(frames) + len(filler))]
    for frame in sorted(frames, key=attrgetter("port")):
        data = frame.data
        parts += (ports[frame.port], lengths[len(data)], data,
                  b"\x01" if frame.valid else b"\x00")
    if filler:
        # Entry k is head k, digest k, ``01``: written by slice, not by loop.
        count = len(filler)
        entries = [b"\x01"] * (3 * count)
        entries[0::3] = _filler_heads(count)[:count]
        entries[1::3] = filler
        cut = len(filler[-1])
        if cut < MAX_FRAME_DATA_BYTES:
            entries[-3] = ports[FILLER_PORT_BASE + count - 1] + lengths[cut]
        parts += entries
    return b"".join(parts)


def decode_cycle_payload(payload: bytes) -> list[tuple[int, bytes, bool]]:
    """Inverse of :func:`encode_cycle_payload`, for analysis tooling."""
    return list(CyclePayload.decode(payload).entries)


class BusReceiver:
    """One node's bus front end: telegrams in, consensus requests out."""

    def __init__(self, nsdb: Nsdb, source_link: str = "mvb0") -> None:
        self._filter = RelevanceFilter(nsdb=nsdb)
        self._source_link = source_link
        self.cycles_seen = 0
        self.cycles_empty_after_filter = 0
        self.invalid_frames_seen = 0

    @property
    def source_link(self) -> str:
        return self._source_link

    def on_cycle(self, cycle: BusCycleData, now_us: int) -> Request | None:
        """Consolidate one bus cycle into a request (None if fully filtered).

        The bus is a broadcast medium: the master hands every device the same
        frozen ``cycle`` object, and the payload is a function of that object,
        the NSDB and the filter state only.  The first receiver to see a
        telegram set records ``(nsdb, state before, state after, payload)`` on
        it; a receiver with the same NSDB and an equal state takes that
        result (and the state object, so the next cycle matches on identity).
        Any other receiver — corrupted copy, missed cycle, fresh after
        recovery, another NSDB — finds no match and computes its own.
        """
        self.cycles_seen += 1
        self.invalid_frames_seen += cycle.invalid_frames
        filt = self._filter
        before = filt.last_raw
        receptions = vars(cycle).setdefault(_RECEPTIONS_MEMO, [])
        for nsdb, seen_before, after, payload in receptions:
            if nsdb is filt.nsdb and (seen_before is before or seen_before == before):
                filt.last_raw = after
                break
        else:
            retained = filt.apply(cycle.frames)
            padding = cycle.padding
            payload = (encode_cycle_payload(retained, cycle.cycle_no, padding)
                       if retained or padding else None)
            receptions.append((filt.nsdb, before, filt.last_raw, payload))
        if payload is None:
            self.cycles_empty_after_filter += 1
            return None
        return Request(
            payload=payload,
            bus_cycle=cycle.cycle_no,
            recv_timestamp_us=now_us,
            source_link=self._source_link,
        )
