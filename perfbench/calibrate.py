"""Host-speed calibration: what makes host times comparable between runs.

On the shared two-core boxes this benchmark runs on, the same code takes
20-30 % longer for seconds or minutes at a time when a neighbour is busy
(CPU time rises with wall time, so it is the core that is slower, not the
process that is descheduled).  Medians of 15 raw repeats landed up to 22 %
apart between runs of one commit, which no 10 % bound can live with.

So every host timing is bracketed by this fixed loop, run just before and
just after it, and reported at *reference speed*::

    reported = measured * REFERENCE_S / mean(loop before, loop after)

i.e. in seconds on a host on which the loop takes ``REFERENCE_S``.  The
loop uses only the standard library and nothing from ``src/``, so no
change to the program can move it.  ``harness.wall_raw_s`` and
``harness.host_speed_x`` report the uncorrected median and the factor.
"""

from __future__ import annotations

import hashlib
import time

#: What the loop takes on the recording host in a quiet period.
REFERENCE_S = 0.2

_ITERATIONS = 1_000_000


def calibration_loop() -> float:
    """Run the loop once; returns the host seconds it took.

    Dict updates, bytearray growth, small bytes objects and one hash: the
    interpreter work the simulator's hot paths are made of, over a few
    megabytes so that a neighbour's cache pressure is felt as the workloads
    feel it (a variant that kept only 64 bytes alive tracked them worse).
    Of the mixes tried it tracked the workloads' slow-downs best (README,
    "Noise").  The harness collects garbage first, so these megabytes land
    in memory the finished repeat has freed and do not raise peak RSS.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    out = bytearray()
    kept = []
    for i in range(_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        out += (i & 0x7F).to_bytes(1, "big")
        if not i & 63:
            kept.append(bytes(out[-64:]))
    hashlib.sha256(b"".join(kept)).digest()
    return time.perf_counter() - start


def to_reference_speed(measured_s: float, loop_before_s: float, loop_after_s: float) -> float:
    return measured_s * REFERENCE_S / ((loop_before_s + loop_after_s) / 2.0)
