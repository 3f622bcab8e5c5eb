"""Train-dynamics signal generator (the testbed's DDC stand-in).

Produces the per-cycle signal values an ATP/control-system complement would
write to the bus during a journey: a speed profile with acceleration,
cruising, braking and station stops, door activity while stopped, brake
pipe pressure following brake demand, occasional ATP interventions and
emergency brakes, plus an opaque vendor-diagnostics channel.

Two knobs matter to the evaluation sweeps:

* ``target_payload_bytes`` pads each cycle with deterministic filler
  telegrams (simulating a fuller process-data complement) so the
  consolidated request reaches the sweep's payload size (32 B – 8 kB in
  Fig. 6/7); the cycle carries them as its ``padding`` byte count;
* determinism — filler and dynamics derive from the cycle number and one
  seed, so every node observing the same cycle sees identical bytes.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.bus.frames import FILLER_PORT_BASE, BusCycleData, ProcessDataFrame
from repro.bus.nsdb import Nsdb
from repro.bus.signals import SignalDef, SignalValue
from repro.util.errors import ConfigError
from repro.util.rng import RngRegistry


class _Phase(enum.Enum):
    ACCELERATING = "accelerating"
    CRUISING = "cruising"
    BRAKING = "braking"
    STOPPED = "stopped"


@dataclass(frozen=True)
class GeneratorConfig:
    """Journey and workload parameters."""

    max_speed_kmh: float = 160.0
    acceleration_kmh_s: float = 1.2
    braking_kmh_s: float = 2.0
    cruise_duration_s: float = 120.0
    stop_duration_s: float = 45.0
    emergency_brake_prob_per_cycle: float = 0.0005
    atp_intervention_prob_per_cycle: float = 0.001
    target_payload_bytes: int = 0  # 0 = no padding
    seed_name: str = "generator"


class TrainDynamicsGenerator:
    """Stateful signal source driven once per bus cycle."""

    def __init__(self, nsdb: Nsdb, config: GeneratorConfig, rng: RngRegistry) -> None:
        self._nsdb = nsdb
        self._config = config
        self._rng = rng.stream(config.seed_name)
        self._phase = _Phase.ACCELERATING
        self._phase_elapsed_s = 0.0
        self._speed_kmh = 0.0
        self._odometer_m = 0.0
        self._brake_demand_pct = 0.0
        self._doors_open_mask = 0
        self._emergency = False
        self._atp_intervention = False
        self._stops_made = 0

    # -- train physics --------------------------------------------------------

    @property
    def speed_kmh(self) -> float:
        return self._speed_kmh

    @property
    def phase(self) -> str:
        return self._phase.value

    @property
    def stops_made(self) -> int:
        return self._stops_made

    def _advance(self, dt_s: float) -> None:
        cfg = self._config
        self._phase_elapsed_s += dt_s

        if self._emergency:
            self._speed_kmh = max(0.0, self._speed_kmh - 2 * cfg.braking_kmh_s * dt_s)
            self._brake_demand_pct = 100.0
            if self._speed_kmh == 0.0:
                self._emergency = False
                self._phase = _Phase.STOPPED
                self._phase_elapsed_s = 0.0
        elif self._phase is _Phase.ACCELERATING:
            self._speed_kmh = min(cfg.max_speed_kmh, self._speed_kmh + cfg.acceleration_kmh_s * dt_s)
            self._brake_demand_pct = 0.0
            if self._speed_kmh >= cfg.max_speed_kmh:
                self._phase = _Phase.CRUISING
                self._phase_elapsed_s = 0.0
        elif self._phase is _Phase.CRUISING:
            self._brake_demand_pct = 0.0
            if self._phase_elapsed_s >= cfg.cruise_duration_s:
                self._phase = _Phase.BRAKING
                self._phase_elapsed_s = 0.0
        elif self._phase is _Phase.BRAKING:
            self._speed_kmh = max(0.0, self._speed_kmh - cfg.braking_kmh_s * dt_s)
            self._brake_demand_pct = 60.0
            if self._speed_kmh == 0.0:
                self._phase = _Phase.STOPPED
                self._phase_elapsed_s = 0.0
                self._stops_made += 1
        elif self._phase is _Phase.STOPPED:
            self._brake_demand_pct = 30.0
            self._doors_open_mask = 0b1111 if self._phase_elapsed_s < self._config.stop_duration_s * 0.8 else 0
            if self._phase_elapsed_s >= cfg.stop_duration_s:
                self._doors_open_mask = 0
                self._phase = _Phase.ACCELERATING
                self._phase_elapsed_s = 0.0

        self._odometer_m += self._speed_kmh / 3.6 * dt_s

        # Random safety events only while moving.
        if self._speed_kmh > 10.0:
            if not self._emergency and self._rng.random() < cfg.emergency_brake_prob_per_cycle:
                self._emergency = True
            self._atp_intervention = self._rng.random() < cfg.atp_intervention_prob_per_cycle
        else:
            self._atp_intervention = False

    # -- per-cycle output ------------------------------------------------------

    def _samples(self, cycle_no: int, dt_s: float) -> list[tuple[SignalDef, bytes]]:
        """Advance the dynamics by one cycle; the due signals with their raw bytes."""
        self._advance(dt_s)
        due = self._nsdb.due_in_cycle(cycle_no)
        try:
            models = [self._MODELS[definition.name] for definition in due]
        except KeyError as missing:
            raise ConfigError(f"generator has no model for signal {missing.args[0]!r}") from None
        return [
            (definition, definition.encode_value(model(self, cycle_no)))
            for definition, model in zip(due, models)
        ]

    def signals_for_cycle(self, cycle_no: int, dt_s: float) -> list[SignalValue]:
        """Advance the dynamics by one cycle and emit the due signal values."""
        return [
            SignalValue(definition=definition, raw=raw)
            for definition, raw in self._samples(cycle_no, dt_s)
        ]

    def _opaque_diagnostics(self, cycle_no: int) -> bytes:
        width = self._nsdb.signal("vendor_diagnostics").width_bytes
        return hashlib.sha256(f"diag:{cycle_no}".encode()).digest()[:width]

    #: Signal name -> model(generator, cycle_no): what the train writes to
    #: that signal's port this cycle.
    _MODELS = {
        "speed": lambda self, _: min(self._speed_kmh, 409.5),
        "odometer": lambda self, _: self._odometer_m % 400_000.0,
        "brake_pipe_pressure": lambda self, _: max(0.0, 5.0 - self._brake_demand_pct / 25.0),
        "emergency_brake": lambda self, _: self._emergency,
        "service_brake_demand": lambda self, _: self._brake_demand_pct,
        "driver_command": lambda self, _: (
            0b10 if self._phase in (_Phase.ACCELERATING, _Phase.CRUISING) else 0b01),
        "atp_intervention": lambda self, _: self._atp_intervention,
        "atp_mode": lambda self, _: 2 if self._speed_kmh > 0 else 1,
        "door_state": lambda self, _: self._doors_open_mask,
        "traction_effort": lambda self, _: 150.0 if self._phase is _Phase.ACCELERATING else 20.0,
        "pantograph_state": lambda self, _: 0b1,
        "horn_active": lambda self, _: False,
        "cab_active": lambda self, _: 1,
        "vendor_diagnostics": _opaque_diagnostics,
    }

    # -- cycle assembly ---------------------------------------------------------

    def frames_for_cycle(self, cycle_no: int, dt_s: float, timestamp_us: int = 0) -> BusCycleData:
        """This cycle's telegrams: the due signals' frames, padded to the target size.

        The padding is a byte count on the cycle (``BusCycleData.padding``);
        its filler telegrams take the ports from ``FILLER_PORT_BASE`` on,
        after every listed one, so a due signal may not sit there.
        """
        create = ProcessDataFrame.create
        frames = [
            create(definition.port, raw) for definition, raw in self._samples(cycle_no, dt_s)
        ]
        padding = 0
        target = self._config.target_payload_bytes
        if target:
            padding = max(target - sum(len(frame.data) for frame in frames), 0)
            # The due list is port-sorted: the last frame has the highest port.
            if padding and frames and frames[-1].port >= FILLER_PORT_BASE:
                raise ConfigError(
                    f"signal port {frames[-1].port:#x} is in the filler range "
                    f"(from {FILLER_PORT_BASE:#x}) of a padded cycle"
                )
        return BusCycleData(
            cycle_no=cycle_no, timestamp_us=timestamp_us, frames=tuple(frames), padding=padding)
