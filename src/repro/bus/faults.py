"""Per-device bus reception faults.

Communication errors occur on real MVBs despite the robust design (the
paper cites bit flips, dropped cycles, and reordering, §III-B).  These
faults are *per receiving device*: the same telegram can arrive intact on
one node, corrupted on another, and not at all on a third — which is
exactly the divergence the ZugChain communication layer must tolerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bus.frames import BusCycleData


@dataclass(frozen=True)
class ReceptionFaultConfig:
    """Probabilities of reception faults per bus cycle for one device."""

    drop_cycle_prob: float = 0.0
    corrupt_frame_prob: float = 0.0
    delay_cycle_prob: float = 0.0

    @staticmethod
    def none() -> "ReceptionFaultConfig":
        return ReceptionFaultConfig()

    @staticmethod
    def noisy(scale: float = 1.0) -> "ReceptionFaultConfig":
        """A realistic error profile: rare drops, occasional bit flips."""
        return ReceptionFaultConfig(
            drop_cycle_prob=0.002 * scale,
            corrupt_frame_prob=0.001 * scale,
            delay_cycle_prob=0.001 * scale,
        )


class ReceptionFaults:
    """Applies a fault configuration to one device's cycle stream.

    ``apply`` maps an incoming cycle to the list of cycles delivered *now*:
    dropped cycles vanish, delayed cycles are buffered and delivered
    together with the next cycle (reordering), corrupted cycles have one
    frame's data bit flipped with a stale checksum.
    """

    def __init__(self, config: ReceptionFaultConfig, rng: random.Random) -> None:
        self._config = config
        self._rng = rng
        self._held: list[BusCycleData] = []
        self.cycles_dropped = 0
        self.cycles_delayed = 0
        self.frames_corrupted = 0

    def apply(self, cycle: BusCycleData) -> list[BusCycleData]:
        deliveries: list[BusCycleData] = []
        # Anything held from a previous delay is flushed (late, out of order).
        if self._held:
            deliveries.extend(self._held)
            self._held.clear()

        roll = self._rng.random()
        if roll < self._config.drop_cycle_prob:
            self.cycles_dropped += 1
            return deliveries
        if roll < self._config.drop_cycle_prob + self._config.delay_cycle_prob:
            self.cycles_delayed += 1
            self._held.append(cycle)
            return deliveries

        if self._config.corrupt_frame_prob and self._rng.random() < self._config.corrupt_frame_prob:
            cycle = self._corrupt(cycle)
        deliveries.append(cycle)
        return deliveries

    def flush(self) -> list[BusCycleData]:
        """Deliver anything still held (end of run)."""
        held, self._held = self._held, []
        return held

    def _corrupt(self, cycle: BusCycleData) -> BusCycleData:
        """A copy with one telegram's bit flipped, every telegram listed (no padding)."""
        telegrams = cycle.telegrams()
        if not telegrams:
            return cycle
        index = self._rng.randrange(len(telegrams))
        bit = self._rng.randrange(max(1, len(telegrams[index].data) * 8))
        frames = list(telegrams)
        frames[index] = frames[index].corrupted(bit)
        self.frames_corrupted += 1
        return BusCycleData(
            cycle_no=cycle.cycle_no,
            timestamp_us=cycle.timestamp_us,
            frames=tuple(frames),
        )
