"""Seeded noisy reception of 8 KiB cycles, pinned end to end.

Four devices on one bus master, each with its own high-rate
:class:`ReceptionFaults`, parse 600 padded cycles through a
:class:`BusReceiver`.  Drops, delays (reordering) and bit flips make the
devices' filter states and payloads diverge, so the pin covers the shared
reception memo, the per-device recomputation and corrupted copies of padded
cycles together.  The digests are each device's delivered payloads in
delivery order; the counts are its fault tallies.
"""

import hashlib

from repro.bus import (
    BusConfig,
    BusReceiver,
    GeneratorConfig,
    MvbMaster,
    ReceptionFaultConfig,
    TrainDynamicsGenerator,
    standard_jru_catalog,
)
from repro.bus.generator import FILLER_PORT_BASE
from repro.bus.reception import decode_cycle_payload
from repro.sim import Kernel
from repro.util import RngRegistry

CYCLES = 600
CYCLE_S = 0.064

#: device -> (sha256 of ``bus_cycle:payload`` of every request, requests,
#: cycles_dropped, cycles_delayed, frames_corrupted), seed 42.
PIN = {
    "node-0": ("1951667506138f565b6800a1f15d17175852a1bfd74e78732f221959a8fb3cc5",
               551, 49, 27, 26),
    "node-1": ("e1d5fb0dd474da728e32de5f5cf4b315fb9c8a49eba01554b46a346374cea6b2",
               536, 64, 35, 24),
    "node-2": ("0329e06da4bb9619a17b1d100b779a989e64370d810cc325ecbf9ed44ee92190",
               548, 52, 24, 28),
    "node-3": ("e0f5b3e73e9ba420fd3dca128a556e39e523ddce97122c873ff613f7cb2f28d9",
               536, 64, 21, 30),
}


def run_noisy_bus():
    kernel = Kernel()
    rng = RngRegistry(42)
    nsdb = standard_jru_catalog()
    generator = TrainDynamicsGenerator(
        nsdb, GeneratorConfig(target_payload_bytes=8192), rng)
    master = MvbMaster(kernel, generator, BusConfig(cycle_time_s=CYCLE_S), rng)
    digests, requests, invalid = {}, {}, {}

    def device(device_id):
        receiver = BusReceiver(nsdb)
        digest = digests[device_id] = hashlib.sha256()
        requests[device_id] = 0
        invalid[device_id] = []

        def on_cycle(cycle):
            request = receiver.on_cycle(cycle, int(kernel.now * 1e6))
            if request is None:
                return
            requests[device_id] += 1
            digest.update(b"%d:" % request.bus_cycle + request.payload)
            invalid[device_id] += [
                port for port, _, valid in decode_cycle_payload(request.payload) if not valid]
        return on_cycle

    for device_id in PIN:
        master.attach(device_id, device(device_id), ReceptionFaultConfig.noisy(scale=50.0))
    master.start()
    kernel.run_until(CYCLES * CYCLE_S + CYCLE_S / 2)
    assert master.cycles_emitted == CYCLES
    observed = {}
    for device_id in PIN:
        faults = master.device_faults(device_id)
        observed[device_id] = (digests[device_id].hexdigest(), requests[device_id],
                               faults.cycles_dropped, faults.cycles_delayed,
                               faults.frames_corrupted)
    return observed, invalid


def test_noisy_reception_of_padded_cycles_is_pinned():
    observed, invalid = run_noisy_bus()
    assert observed == PIN
    # The faults did what the pin is meant to cover.
    for device_id, (_, logged, dropped, delayed, corrupted) in observed.items():
        assert dropped and delayed and corrupted, device_id
        assert logged == CYCLES - dropped, device_id
    assert any(port >= FILLER_PORT_BASE for ports in invalid.values() for port in ports)
    assert any(port < FILLER_PORT_BASE for ports in invalid.values() for port in ports)
