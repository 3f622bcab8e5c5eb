"""Calibrated CPU and memory cost model.

The paper measures latency, CPU, and memory on Freescale i.MX6 quad
Cortex-A9 @800 MHz nodes.  We replace the hardware with explicit per-
operation charges.  Each constant below documents its rationale; the
*relative* results (baseline ≈4× ordering work, overload at 32 ms bus
cycles) follow from message counts, which the protocol code reproduces
exactly, while these constants set the absolute scale.

Calibration anchors from the paper (§V-B):

* ZugChain orders a 1 kB request in ≈14 ms at a 64 ms bus cycle.  With
  Ed25519 sign ≈0.6 ms / verify ≈1.6 ms on an 800 MHz Cortex-A9 (consistent
  with published ``ring``/donna benchmarks for that class of core), one PBFT
  instance costs ≈12–13 ms of sequential crypto on the critical path plus
  ≈1–2 ms of networking — matching the measured 14 ms without tuning.
* Writing a block of ten 8 kB requests to flash takes 5.03 ms → modeled as
  1.5 ms base + ~44 ns/byte.
* The protocol pipeline is sequential per node (ordering in BFT
  implementations is a serial pipeline); auxiliary work (bus parsing, disk,
  export) runs on the remaining cores and is charged to utilization but not
  to ordering latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.kernel import Kernel
from repro.sim.monitor import TimeSeries


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU charges (seconds) and sizing constants."""

    # Asymmetric crypto on an 800 MHz Cortex-A9 (see module docstring);
    # consistent with NEON-optimized Ed25519 (~0.4 Mcycle sign / 1 Mcycle verify).
    sign_s: float = 0.50e-3
    verify_s: float = 1.25e-3
    # SHA-256 on ARMv7 without crypto extensions: ~48 cycles/byte @800 MHz.
    hash_per_byte_s: float = 60e-9
    hash_base_s: float = 2e-6
    # Serialization / deserialization (Protobuf-class codec on this core).
    serialize_per_byte_s: float = 25e-9
    serialize_base_s: float = 5e-6
    # Generic per-message handling (dispatch, bookkeeping).
    message_overhead_s: float = 0.12e-3
    # Flash write: 5.03 ms for an 80 kB block (paper §V-B).
    disk_write_base_s: float = 1.5e-3
    disk_write_per_byte_s: float = 44e-9
    # Cores per node (quad-core i.MX6); utilization denominator.
    cores: int = 4
    core_hz: float = 800e6

    def verify_cost(self, count: int = 1) -> float:
        return self.verify_s * count

    def hash_cost(self, nbytes: int) -> float:
        return self.hash_base_s + self.hash_per_byte_s * nbytes

    def serialize_cost(self, nbytes: int) -> float:
        return self.serialize_base_s + self.serialize_per_byte_s * nbytes

    def disk_write_cost(self, nbytes: int) -> float:
        return self.disk_write_base_s + self.disk_write_per_byte_s * nbytes


class CpuAccount:
    """CPU model of one node: a sequential protocol pipeline plus background work.

    ``submit`` queues work on the ordering pipeline (single worker — the
    consensus critical path); ``charge_background`` accounts work done on the
    other cores (bus parsing, disk writes, export serving) that consumes CPU
    but does not delay ordering.  Utilization is measured against all cores.
    """

    def __init__(self, kernel: Kernel, model: CostModel, name: str = "node") -> None:
        self._kernel = kernel
        self._model = model
        self.name = name
        self._pipeline_busy_until = 0.0
        self._pipeline_busy_total = 0.0
        self._background_total = 0.0
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._window_start = 0.0
        self._window_busy = 0.0

    @property
    def model(self) -> CostModel:
        return self._model

    @property
    def queue_depth(self) -> int:
        return self._queue_depth

    @property
    def max_queue_depth(self) -> int:
        return self._max_queue_depth

    @property
    def pipeline_backlog(self) -> float:
        """Seconds of queued pipeline work not yet completed."""
        return max(0.0, self._pipeline_busy_until - self._kernel.now)

    def submit(self, duration: float, callback: Callable[..., None], *args: Any) -> float:
        """Queue ``duration`` seconds of pipeline work; fire ``callback(*args)`` when done.

        Returns the completion time.  Work starts when the pipeline frees up,
        which is what makes an overloaded baseline's latency explode.
        """
        start = self._kernel.now
        if start < self._pipeline_busy_until:
            start = self._pipeline_busy_until
        end = start + duration
        self._pipeline_busy_until = end
        self._pipeline_busy_total += duration
        self._window_busy += duration
        depth = self._queue_depth = self._queue_depth + 1
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth
        self._kernel.schedule_at(end, self._complete, callback, args)
        return end

    def _complete(self, callback: Callable[..., None], args: tuple) -> None:
        self._queue_depth -= 1
        callback(*args)

    def charge_background(self, duration: float) -> None:
        """Account CPU work running off the ordering pipeline."""
        self._background_total += duration
        self._window_busy += duration

    def busy_total(self) -> float:
        return self._pipeline_busy_total + self._background_total

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of *total* node CPU used (1.0 == all cores busy).

        The paper reports CPU with 400 % meaning all four cores; our 1.0
        corresponds to their 400 %.
        """
        if elapsed is None:
            elapsed = self._kernel.now
        if elapsed <= 0:
            return 0.0
        return self.busy_total() / (elapsed * self._model.cores)

    def window_utilization(self) -> float:
        """Utilization since the last :meth:`reset_window` call."""
        elapsed = self._kernel.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_busy / (elapsed * self._model.cores)

    def reset_window(self) -> None:
        self._window_start = self._kernel.now
        self._window_busy = 0.0


class MemoryAccount:
    """Byte-accurate memory accounting by category.

    Categories mirror the data structures whose growth matters to the paper:
    request queues, consensus message logs, the unpruned blockchain, and a
    fixed process overhead.  ``peak`` captures the blow-up of an overloaded
    baseline (Fig. 7's 6.3× at 32 ms cycles).
    """

    #: Resident overhead of the recorder process itself (binary, runtime,
    #: buffers) — constant between ZugChain and baseline.
    FIXED_OVERHEAD_BYTES = 1024 * 1024

    def __init__(self, name: str = "node") -> None:
        self.name = name
        self._categories: dict[str, int] = {}
        self._peak = self.FIXED_OVERHEAD_BYTES
        self._series = TimeSeries(name=f"{name}.memory")

    def add(self, category: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("use release() to free memory")
        self._categories[category] = self._categories.get(category, 0) + nbytes
        self._peak = max(self._peak, self.current())

    def release(self, category: str, nbytes: int) -> None:
        held = self._categories.get(category, 0)
        if nbytes > held:
            raise ValueError(
                f"releasing {nbytes} from {category!r} but only {held} held"
            )
        self._categories[category] = held - nbytes

    def category(self, category: str) -> int:
        return self._categories.get(category, 0)

    def current(self) -> int:
        return self.FIXED_OVERHEAD_BYTES + sum(self._categories.values())

    @property
    def peak(self) -> int:
        return self._peak

    def sample(self, now: float) -> None:
        self._series.record(now, self.current())

    @property
    def series(self) -> TimeSeries:
        return self._series
