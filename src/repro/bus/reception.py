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

from repro.bus.frames import BusCycleData, ProcessDataFrame
from repro.bus.nsdb import Nsdb
from repro.wire.codec import Reader, Writer
from repro.wire.messages import Request


@dataclass
class RelevanceFilter:
    """Suppresses unchanged samples of change-only signals.

    Signals outside the NSDB (e.g. filler complement) and signals marked
    ``log_on_change_only=False`` always pass.  State is per node: a node
    that missed a cycle simply re-logs the next sample.
    """

    nsdb: Nsdb
    _last_raw: dict[int, bytes] = field(default_factory=dict)

    def apply(self, frames: tuple[ProcessDataFrame, ...]) -> list[ProcessDataFrame]:
        retained: list[ProcessDataFrame] = []
        for frame in frames:
            if not self.nsdb.has_port(frame.port):
                retained.append(frame)
                continue
            definition = self.nsdb.by_port(frame.port)
            if not definition.log_on_change_only:
                retained.append(frame)
                continue
            if self._last_raw.get(frame.port) != frame.data:
                self._last_raw[frame.port] = frame.data
                retained.append(frame)
        return retained

    def reset(self) -> None:
        self._last_raw.clear()


def encode_cycle_payload(frames: list[ProcessDataFrame]) -> bytes:
    """Deterministic payload: (port, data, valid) triples sorted by port."""
    writer = Writer()
    writer.put_uint(len(frames))
    for frame in sorted(frames, key=attrgetter("port")):
        writer.put_uint(frame.port)
        writer.put_bytes(frame.data)
        writer.put_bool(frame.valid)
    return writer.getvalue()


def decode_cycle_payload(payload: bytes) -> list[tuple[int, bytes, bool]]:
    """Inverse of :func:`encode_cycle_payload`, for analysis tooling."""
    reader = Reader(payload)
    entries = reader.get_list(
        lambda r: (r.get_uint(), r.get_bytes(), r.get_bool())
    )
    reader.expect_end()
    return entries


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
        """Consolidate one bus cycle into a request (None if fully filtered)."""
        self.cycles_seen += 1
        self.invalid_frames_seen += sum(1 for frame in cycle.frames if not frame.valid)
        retained = self._filter.apply(cycle.frames)
        if not retained:
            self.cycles_empty_after_filter += 1
            return None
        return Request(
            payload=encode_cycle_payload(retained),
            bus_cycle=cycle.cycle_no,
            recv_timestamp_us=now_us,
            source_link=self._source_link,
        )
