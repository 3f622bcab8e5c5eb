"""MVB process-data telegrams.

The MVB transfers process data as master telegram (port poll) followed by a
slave telegram carrying the value plus a check sequence.  We model the slave
telegram as :class:`ProcessDataFrame` — port, raw value bytes, and an 8-bit
checksum — and one bus cycle's full complement as :class:`BusCycleData`:
the listed telegrams plus a byte count of deterministic filler telegrams
(the simulated fuller process-data complement), which are built as objects
only where a caller needs them one by one.

Frame sizes feed the payload-size accounting: real MVB frames carry up to
32 bytes of process data plus header and check sequence overhead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from repro.util.errors import CodecError
from repro.util.memo import memoized
from repro.wire.codec import WireStruct

#: Header + check-sequence overhead per slave telegram, per IEC 61375-3-1.
FRAME_OVERHEAD_BYTES = 5
#: Maximum process data bytes in one telegram.
MAX_FRAME_DATA_BYTES = 32
#: Port of the first filler telegram (outside the NSDB catalog).
FILLER_PORT_BASE = 0x800


def frame_checksum(port: int, data: bytes) -> int:
    """8-bit additive check sequence over port and data bytes.

    A simple stand-in for the MVB's CRC; enough to detect the single-bit
    corruptions our fault injector produces.
    """
    return ((port >> 8) + (port & 0xFF) + sum(data)) & 0xFF


@dataclass(frozen=True)
class ProcessDataFrame(WireStruct):
    """One slave telegram: port address, data, check sequence."""

    port: int
    data: bytes
    checksum: int

    @staticmethod
    def create(port: int, data: bytes) -> "ProcessDataFrame":
        if len(data) > MAX_FRAME_DATA_BYTES:
            raise CodecError(
                f"frame data of {len(data)} bytes exceeds MVB maximum {MAX_FRAME_DATA_BYTES}"
            )
        # Fields and verdict go straight into the instance dict: the frozen
        # ``__init__`` costs three ``object.__setattr__`` calls per telegram,
        # and the check sequence is computed from these very bytes, so the
        # frame starts out knowing it is valid instead of summing again.
        frame = object.__new__(ProcessDataFrame)
        state = frame.__dict__
        state["port"] = port
        state["data"] = data
        state["checksum"] = frame_checksum(port, data)
        state["valid"] = True
        return frame

    @memoized
    def valid(self) -> bool:
        """Check-sequence verdict, computed once: every node reads the same frame.

        Only :meth:`create` pre-fills it; a corrupted, decoded or
        ``replace``d frame has no memo and checks its bytes.
        """
        return self.checksum == frame_checksum(self.port, self.data)

    def wire_size(self) -> int:
        return FRAME_OVERHEAD_BYTES + len(self.data)

    def corrupted(self, bit_index: int) -> "ProcessDataFrame":
        """Copy with one data bit flipped and checksum left stale (bus error)."""
        if not self.data:
            return self
        byte_index = (bit_index // 8) % len(self.data)
        mask = 1 << (bit_index % 8)
        data = bytearray(self.data)
        data[byte_index] ^= mask
        return ProcessDataFrame(port=self.port, data=bytes(data), checksum=self.checksum)


def filler_data(cycle_no: int, nbytes: int) -> list[bytes]:
    """The data of the filler telegrams that pad cycle ``cycle_no`` by ``nbytes``.

    Telegram ``k`` (port ``FILLER_PORT_BASE + k``) carries
    ``sha256("filler:<cycle>:<k>")``: one digest fills one telegram exactly,
    and the last is cut to the remainder.  Every node observing the cycle
    derives the same bytes.
    """
    full, tail = divmod(max(nbytes, 0), MAX_FRAME_DATA_BYTES)
    copy = hashlib.sha256(b"filler:%d:" % cycle_no).copy  # hashed once per cycle
    digests = []
    append = digests.append
    for counter in range(full + (tail > 0)):
        hasher = copy()
        hasher.update(b"%d" % counter)
        append(hasher.digest())
    if tail:
        digests[-1] = digests[-1][:tail]
    return digests


@dataclass(frozen=True)
class BusCycleData(WireStruct):
    """All telegrams transmitted during one bus cycle.

    ``frames`` are the telegrams listed one by one; ``padding`` is the byte
    count of the valid filler telegrams that follow them (see
    :func:`filler_data`).  :meth:`telegrams` is the full sequence.
    """

    cycle_no: int
    timestamp_us: int
    frames: tuple[ProcessDataFrame, ...]
    padding: int = 0

    @property
    def filler_count(self) -> int:
        """How many filler telegrams ``padding`` stands for."""
        return -(-self.padding // MAX_FRAME_DATA_BYTES)

    def telegrams(self) -> tuple[ProcessDataFrame, ...]:
        """Every telegram of the cycle, filler included, each with its check sequence."""
        create = ProcessDataFrame.create
        return self.frames + tuple(
            create(port, data)
            for port, data in enumerate(filler_data(self.cycle_no, self.padding),
                                        FILLER_PORT_BASE))

    @memoized
    def _totals(self) -> tuple[int, int]:
        """``(data bytes, failed check sequences)``: one walk over ``frames``.

        Filler telegrams are valid by construction and add ``padding`` bytes.
        """
        data_size = self.padding
        invalid = 0
        for frame in self.frames:
            data_size += len(frame.data)
            if not frame.valid:
                invalid += 1
        return data_size, invalid

    @property
    def invalid_frames(self) -> int:
        """How many telegrams of this set fail their check sequence."""
        return self._totals[1]

    def wire_size(self) -> int:
        # Every telegram carries the same overhead, so the sum of the
        # telegrams' ``wire_size()`` is algebra on the data size.
        return FRAME_OVERHEAD_BYTES * (len(self.frames) + self.filler_count) + self._totals[0]

    def data_size(self) -> int:
        return self._totals[0]

    def __getstate__(self) -> dict:
        # Fields only: what receivers memoised on this telegram set (sizes,
        # reception results and through them an NSDB) stays out of a pickle.
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def encode(self) -> bytes:
        # Its own attribute on purpose: perfbench wraps ``BusCycleData.encode``
        # as a bus-layer boundary, and wrapping the inherited function there
        # would book every message's encode() under ``bus``.
        return super().encode()
