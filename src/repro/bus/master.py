"""The MVB bus master polling loop.

The master (the testbed's SIBAS-KLIP AS318MVB) sets the cycle: every
``cycle_time_s`` it polls the signal writers and delivers the resulting
telegrams to every attached device in the same instant — the bus is a
synchronous, time-triggered broadcast medium.  Reception faults are applied
per device on delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bus.faults import ReceptionFaultConfig, ReceptionFaults
from repro.bus.frames import BusCycleData
from repro.bus.generator import TrainDynamicsGenerator
from repro.sim.kernel import Kernel
from repro.util.errors import ConfigError
from repro.util.rng import RngRegistry

#: Minimum MVB cycle time (§V-B: "bus cycles from 32 ms, the MVB's minimum").
MIN_CYCLE_TIME_S = 0.032


@dataclass(frozen=True)
class BusConfig:
    """Bus master parameters."""

    cycle_time_s: float = 0.064
    enforce_minimum: bool = True

    def __post_init__(self) -> None:
        if self.enforce_minimum and self.cycle_time_s < MIN_CYCLE_TIME_S:
            raise ConfigError(
                f"cycle time {self.cycle_time_s * 1000:.0f} ms below MVB minimum "
                f"{MIN_CYCLE_TIME_S * 1000:.0f} ms"
            )
        if self.cycle_time_s <= 0:
            raise ConfigError("cycle time must be positive")


class MvbMaster:
    """Drives the cycle schedule and fans telegrams out to attached devices."""

    def __init__(
        self,
        kernel: Kernel,
        generator: TrainDynamicsGenerator,
        config: BusConfig,
        rng: RngRegistry,
    ) -> None:
        self._kernel = kernel
        self._generator = generator
        self._config = config
        self._rng = rng
        self._devices: dict[str, tuple[Callable[[BusCycleData], None], ReceptionFaults]] = {}
        self._offline: set[str] = set()
        self._skew_s: dict[str, float] = {}
        self._cycle_no = 0
        self._running = False
        self.cycles_emitted = 0

    @property
    def cycle_time_s(self) -> float:
        return self._config.cycle_time_s

    @property
    def cycle_no(self) -> int:
        return self._cycle_no

    def attach(
        self,
        device_id: str,
        on_cycle: Callable[[BusCycleData], None],
        faults: ReceptionFaultConfig | None = None,
    ) -> None:
        """Subscribe a device to every bus cycle, with optional reception faults."""
        if device_id in self._devices:
            raise ConfigError(f"device {device_id!r} already attached")
        fault_state = ReceptionFaults(
            faults or ReceptionFaultConfig.none(),
            self._rng.stream(f"bus-faults:{device_id}"),
        )
        self._devices[device_id] = (on_cycle, fault_state)

    def device_faults(self, device_id: str) -> ReceptionFaults:
        return self._devices[device_id][1]

    def set_offline(self, device_id: str, offline: bool) -> None:
        """Power state: an offline device receives no cycles at all."""
        if offline:
            self._offline.add(device_id)
        else:
            self._offline.discard(device_id)

    def set_skew(self, device_id: str, offset_s: float) -> None:
        """Clock skew: deliver cycles to ``device_id`` ``offset_s`` late.

        Models a device whose local cycle clock has drifted — it still sees
        every telegram, but after the rest of the bus (§III-C gray failures).
        A zero offset restores synchronous delivery.
        """
        if offset_s < 0:
            raise ConfigError(f"bus skew must be non-negative, got {offset_s}")
        if offset_s > 0:
            self._skew_s[device_id] = offset_s
        else:
            self._skew_s.pop(device_id, None)

    def start(self) -> None:
        if self._running:
            raise ConfigError("bus master already running")
        self._running = True
        self._kernel.schedule(self._config.cycle_time_s, self._tick)

    def stop(self) -> None:
        self._running = False

    @staticmethod
    def _deliver(on_cycle: Callable[[BusCycleData], None], deliveries: list[BusCycleData]) -> None:
        for delivery in deliveries:
            on_cycle(delivery)

    def _tick(self) -> None:
        if not self._running:
            return
        self._cycle_no += 1
        self.cycles_emitted += 1
        cycle = self._generator.frames_for_cycle(
            self._cycle_no, self._config.cycle_time_s, timestamp_us=int(self._kernel.now * 1e6))
        for device_id, (on_cycle, fault_state) in self._devices.items():
            if device_id in self._offline:
                continue
            deliveries = list(fault_state.apply(cycle))
            skew = self._skew_s.get(device_id, 0.0)
            if skew > 0:
                # A skewed device's deliveries leave the synchronous instant.
                self._kernel.schedule(skew, self._deliver, on_cycle, deliveries)
            else:
                self._deliver(on_cycle, deliveries)
        self._kernel.schedule(self._config.cycle_time_s, self._tick)
