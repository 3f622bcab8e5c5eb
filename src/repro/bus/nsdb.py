"""Node supervisor database (NSDB).

On the testbed every MVB component carries an NSDB file specifying which
signals it reads or writes.  Here the NSDB is the authoritative catalog of
signal definitions plus per-device read/write sets; the bus master polls
writers and the recorder nodes subscribe as readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.bus.signals import SignalDef, SignalKind
from repro.util.errors import ConfigError


@dataclass
class Nsdb:
    """Signal catalog with device port assignments."""

    signals: dict[str, SignalDef] = field(default_factory=dict)
    _ports: dict[int, str] = field(default_factory=dict)
    _writers: dict[str, set[str]] = field(default_factory=dict)
    _readers: dict[str, set[str]] = field(default_factory=dict)
    # Derived from ``signals`` by ``add_signal``, so the per-cycle and
    # per-telegram questions below are a lookup, not a walk of the catalog.
    _change_only_ports: frozenset[int] = field(default=frozenset(), repr=False, compare=False)
    _poll_schedule: tuple[SignalDef, ...] | None = field(default=None, repr=False, compare=False)

    def add_signal(self, definition: SignalDef) -> None:
        if definition.name in self.signals:
            raise ConfigError(f"signal {definition.name!r} already defined")
        owner = self._ports.get(definition.port)
        if owner is not None:
            raise ConfigError(
                f"port {definition.port:#x} already assigned to {owner!r}"
            )
        self.signals[definition.name] = definition
        self._ports[definition.port] = definition.name
        if definition.log_on_change_only:
            self._change_only_ports |= {definition.port}
        self._poll_schedule = None

    def signal(self, name: str) -> SignalDef:
        try:
            return self.signals[name]
        except KeyError:
            raise ConfigError(f"unknown signal {name!r}") from None

    def by_port(self, port: int) -> SignalDef:
        name = self._ports.get(port)
        if name is None:
            raise ConfigError(f"no signal on port {port:#x}")
        return self.signals[name]

    def has_port(self, port: int) -> bool:
        return port in self._ports

    @property
    def change_only_ports(self) -> frozenset[int]:
        """Ports whose signal is logged on change only (a value: replaced, never mutated)."""
        return self._change_only_ports

    def assign_writer(self, device: str, signal_name: str) -> None:
        self.signal(signal_name)  # validates existence
        self._writers.setdefault(device, set()).add(signal_name)

    def assign_reader(self, device: str, signal_name: str) -> None:
        self.signal(signal_name)
        self._readers.setdefault(device, set()).add(signal_name)

    def written_by(self, device: str) -> list[SignalDef]:
        return sorted(
            (self.signals[name] for name in self._writers.get(device, ())),
            key=lambda sig: sig.port,
        )

    def read_by(self, device: str) -> list[SignalDef]:
        return sorted(
            (self.signals[name] for name in self._readers.get(device, ())),
            key=lambda sig: sig.port,
        )

    def _schedule(self) -> tuple[SignalDef, ...]:
        """The catalog in port order, sorted once and kept until a signal is added."""
        schedule = self._poll_schedule
        if schedule is None:
            schedule = self._poll_schedule = tuple(
                sorted(self.signals.values(), key=attrgetter("port")))
        return schedule

    def all_signals(self) -> list[SignalDef]:
        return list(self._schedule())

    def due_in_cycle(self, cycle_no: int) -> list[SignalDef]:
        """Signals scheduled for transmission in ``cycle_no``, in port order.

        The MVB master polls each signal every ``period_cycles`` cycles.
        """
        return [sig for sig in self._schedule() if cycle_no % sig.period_cycles == 0]


def standard_jru_catalog() -> Nsdb:
    """The IEC 62625-style default signal set used throughout the evaluation.

    Mirrors the classes of events a JRU must record: speed/location, brake
    system state, driver commands, ATP interventions, door activity, plus a
    vendor-encrypted diagnostic channel logged opaquely (§III-A: "Some data
    is received by the JRU in encrypted form and logged as is").
    """
    nsdb = Nsdb()
    definitions = [
        SignalDef("speed", port=0x100, width_bytes=2, kind=SignalKind.FIXED_POINT,
                  scale=0.1, unit="km/h", log_on_change_only=True),
        SignalDef("odometer", port=0x101, width_bytes=4, kind=SignalKind.FIXED_POINT,
                  scale=0.1, unit="m", log_on_change_only=True),
        SignalDef("brake_pipe_pressure", port=0x110, width_bytes=2,
                  kind=SignalKind.FIXED_POINT, scale=0.01, unit="bar",
                  log_on_change_only=True),
        SignalDef("emergency_brake", port=0x111, width_bytes=1, kind=SignalKind.BOOLEAN),
        SignalDef("service_brake_demand", port=0x112, width_bytes=1,
                  kind=SignalKind.FIXED_POINT, scale=1.0, unit="%",
                  log_on_change_only=True),
        SignalDef("driver_command", port=0x120, width_bytes=2, kind=SignalKind.BITFIELD),
        SignalDef("atp_intervention", port=0x130, width_bytes=1, kind=SignalKind.BOOLEAN),
        SignalDef("atp_mode", port=0x131, width_bytes=1, kind=SignalKind.UNSIGNED,
                  log_on_change_only=True, period_cycles=2),
        SignalDef("door_state", port=0x140, width_bytes=2, kind=SignalKind.BITFIELD,
                  log_on_change_only=True),
        SignalDef("traction_effort", port=0x150, width_bytes=2,
                  kind=SignalKind.FIXED_POINT, scale=0.1, unit="kN",
                  log_on_change_only=True, period_cycles=2),
        SignalDef("pantograph_state", port=0x151, width_bytes=1, kind=SignalKind.BITFIELD,
                  log_on_change_only=True, period_cycles=4),
        SignalDef("horn_active", port=0x152, width_bytes=1, kind=SignalKind.BOOLEAN),
        SignalDef("cab_active", port=0x153, width_bytes=1, kind=SignalKind.UNSIGNED,
                  log_on_change_only=True, period_cycles=4),
        SignalDef("vendor_diagnostics", port=0x1F0, width_bytes=16,
                  kind=SignalKind.OPAQUE, encrypted=True, period_cycles=4),
    ]
    for definition in definitions:
        nsdb.add_signal(definition)
    # Device assignments mirroring Fig. 1: ATP and control systems write,
    # the recorder nodes read everything.
    for name in ("speed", "odometer", "atp_intervention", "atp_mode"):
        nsdb.assign_writer("atp", name)
    for name in ("brake_pipe_pressure", "emergency_brake", "service_brake_demand"):
        nsdb.assign_writer("bcs", name)
    for name in ("traction_effort", "pantograph_state"):
        nsdb.assign_writer("acs", name)
    for name in ("driver_command", "horn_active", "cab_active", "door_state"):
        nsdb.assign_writer("cab", name)
    nsdb.assign_writer("vendor", "vendor_diagnostics")
    return nsdb
