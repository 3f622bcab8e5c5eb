"""Runs one workload: set-up launches, warm-up, timed repeats, traced repeat.

One process, one thread.  Host time is ``time.perf_counter`` around the
timed section only, put at reference speed by the calibration loop run
before and after it (:mod:`perfbench.calibrate`); between repeats
references are dropped and the garbage collector runs.  End-to-end
numbers never come from the traced repeat.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from perfbench.calibrate import REFERENCE_S, calibration_loop, to_reference_speed
from perfbench.layers import Observations, boundary_points, layer_metrics
from perfbench.metrics import END_TO_END, PER_LAYER, spread_share, summarize
from perfbench.spans import SpanRecorder, patched, write_jsonl
from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

IMPORT_LAUNCHES = 7
MIN_TIMED_REPEATS = 5


def measure_import_s(modules: tuple[str, ...], launches: int = IMPORT_LAUNCHES) -> list[float]:
    """Import what the workload needs in ``launches`` fresh interpreters.

    Returns each launch's import time at reference speed.
    """
    code = ("import time; t = time.perf_counter(); import " + ", ".join(modules)
            + "; print(time.perf_counter() - t)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    times = []
    before = calibration_loop()
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = calibration_loop()
        times.append(to_reference_speed(float(done.stdout), before, after))
        before = after
    return times


def repeat(workload, seed: int) -> tuple[Outcome, float, float]:
    """One untraced repeat: (outcome, build seconds, timed-section seconds).

    The repeat's objects are dropped and collected before it returns, so
    the next repeat and the calibration loop start from a clean heap.
    """
    start = time.perf_counter()
    state = workload.build(seed)
    built = time.perf_counter()
    raw = workload.timed(state)
    end = time.perf_counter()
    outcome = workload.outcome(state, raw)
    del state, raw
    gc.collect()
    return outcome, built - start, end - built


def traced_repeat(workload, seed: int) -> tuple[Outcome, float, list[list], Observations]:
    """One repeat with spans around every layer boundary."""
    seen = Observations()
    recorder = SpanRecorder()
    # Wrappers go in before the build because nodes keep bound methods
    # (``propose=self.replica.propose``); what the build itself recorded is
    # dropped so the spans cover the timed section only.
    with patched(recorder, boundary_points(seen)):
        state = workload.build(seed)
        recorder.spans.clear()
        seen.clear()
        start = time.perf_counter()
        raw = workload.timed(state)
        wall = time.perf_counter() - start
    return workload.outcome(state, raw), wall, recorder.spans, seen


def check_determinism(outcomes: list[Outcome]) -> list[str]:
    """The determinism contract: every repeat shares head, events and sim_* values."""
    first = outcomes[0].fingerprint()
    return [
        f"repeat {index} differs from repeat 0: {outcome.fingerprint()} != {first}"
        for index, outcome in enumerate(outcomes[1:], start=1)
        if outcome.fingerprint() != first
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(workload, seed: int, seconds: float, trace: str) -> dict:
    """Measure one workload; ``trace`` is "0", "1" or "both".

    "0" spends ``seconds`` on timed repeats and reports the end-to-end
    metrics; "1" spends half of it on untraced repeats (the base of
    ``harness.trace_overhead_x``) and adds the traced repeat; "both" does
    the full timed run and then the traced repeat.
    """
    imports = measure_import_s(workload.imports)
    outcomes = [repeat(workload, seed)[0]]            # untimed warm-up

    budget = seconds / 2 if trace == "1" else seconds
    builds, walls, raw_walls, loops = [], [], [], [calibration_loop()]
    deadline = time.perf_counter() + budget
    while len(walls) < MIN_TIMED_REPEATS or time.perf_counter() < deadline:
        outcome, build_s, wall_s = repeat(workload, seed)
        loops.append(calibration_loop())
        outcomes.append(outcome)
        builds.append(to_reference_speed(build_s, *loops[-2:]))
        walls.append(to_reference_speed(wall_s, *loops[-2:]))
        raw_walls.append(wall_s)
    rss = peak_rss_mb()

    spread = {"wall_s": summarize(walls), "wall_raw_s": summarize(raw_walls),
              "import_s": summarize(imports), "build_s": summarize(builds)}
    raw_wall = spread["wall_raw_s"]["median"]
    first = outcomes[0]
    # A per-layer metric the workload never touches reads 0.
    values: dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    values.update({
        "wall_s": spread["wall_s"]["median"],
        "setup_s": spread["import_s"]["median"] + spread["build_s"]["median"],
        "peak_rss_mb": rss,
        "recorded_share_pct": 100.0 * (1.0 - first.failed / first.attempted),
    })
    values.update(first.exact)

    if trace != "0":
        traced, traced_wall, spans, seen = traced_repeat(workload, seed)
        outcomes.append(traced)
        values.update(layer_metrics(
            spans, seen, traced_wall, traced.requests, traced.counters,
            traced.exact["sim.net_bytes_per_req"],
        ))
        # The traced repeat is raw host time, so what it is set against is too.
        values.update({
            "sim.events_per_s": first.events_fired / raw_wall,
            "sim.sim_x": first.sim_seconds / raw_wall,
            "harness.import_s": spread["import_s"]["median"],
            "harness.build_s": spread["build_s"]["median"],
            "harness.wall_raw_s": raw_wall,
            "harness.host_speed_x": REFERENCE_S / summarize(loops)["median"],
            "harness.repeat_iqr_pct": 100.0 * spread_share(spread["wall_s"]),
            "harness.trace_overhead_x": traced_wall / raw_wall,
        })
        write_jsonl(spans, OUT / f"{workload.name}.spans.jsonl")

    problems = first.problems + check_determinism(outcomes)
    attempted = first.attempted * len(walls)
    reported = (END_TO_END if trace != "1" else ()) + (PER_LAYER if trace != "0" else ())
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else first.failed * len(walls),
        "head": first.head,
        "events_fired": first.events_fired,
        "problems": problems,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in reported},
        "spread": spread,
        # Every timed repeat as the clock read it, with the calibration loops
        # between them (one more loop than repeats), so a reader can redo the
        # statistics.
        "samples": {"wall_raw_s": raw_walls, "calibration_s": loops},
    }
