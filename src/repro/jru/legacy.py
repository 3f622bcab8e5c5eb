"""The centralized JRU that ZugChain replaces.

A hardened device with a capacity-limited ring buffer in flash memory
(§II-A): events overwrite the oldest entries once the buffer is full, and
extraction requires physical access by authorized personnel.  The model
exists as the comparison point for the accident scenarios (a single copy
that is lost is lost entirely) and for the example applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.util.errors import ConfigError, ProtocolError
from repro.wire.messages import Request


@dataclass(frozen=True)
class LegacyJruConfig:
    """Sizing of the hardened recorder."""

    ring_capacity: int = 4096     # entries before overwrite
    extraction_key: str = "physical-key-1"


@dataclass
class _RingEntry:
    request: Request
    checksum: bytes


class LegacyJru:
    """Centralized recorder: one copy, ring buffer, keyed extraction."""

    def __init__(self, config: LegacyJruConfig | None = None) -> None:
        self.config = config or LegacyJruConfig()
        if self.config.ring_capacity < 1:
            raise ConfigError("ring capacity must be >= 1")
        self._ring: list[_RingEntry] = []
        self._write_pos = 0
        self.destroyed = False
        self.records_written = 0
        self.records_overwritten = 0

    def record(self, request: Request) -> None:
        """Log one event; overwrites the oldest once the ring is full."""
        if self.destroyed:
            return  # a destroyed device silently records nothing
        entry = _RingEntry(request=request, checksum=sha256(request.encode()))
        if len(self._ring) < self.config.ring_capacity:
            self._ring.append(entry)
        else:
            self._ring[self._write_pos] = entry
            self._write_pos = (self._write_pos + 1) % self.config.ring_capacity
            self.records_overwritten += 1
        self.records_written += 1

    def destroy(self) -> None:
        """The accident case: the device is damaged beyond recovery."""
        self.destroyed = True
        self._ring.clear()

    def tamper(self, index: int, forged: Request) -> None:
        """Physical tampering: silently replace one entry *and* its checksum.

        The integrity protection is a device-local checksum — an attacker
        with physical access recomputes it, which is exactly the weakness
        blockchain-based logging removes.
        """
        if 0 <= index < len(self._ring):
            self._ring[index] = _RingEntry(request=forged, checksum=sha256(forged.encode()))

    def extract(self, key: str) -> list[Request]:
        """Keyed extraction of the surviving buffer contents."""
        if key != self.config.extraction_key:
            raise ProtocolError("extraction requires the physical key")
        if self.destroyed:
            return []
        ordered = self._ring[self._write_pos:] + self._ring[: self._write_pos]
        out = []
        for entry in ordered:
            if entry.checksum != sha256(entry.request.encode()):
                continue  # bit rot detected by the checksum
            out.append(entry.request)
        return out
