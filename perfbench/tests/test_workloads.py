"""Scaled-down passes of the four workloads through the real program."""

from dataclasses import replace

import pytest

from perfbench.harness import check_determinism, repeat, traced_repeat
from perfbench.layers import layer_metrics
from perfbench.metrics import END_TO_END, LAYERS
from perfbench.workloads import WORKLOADS

SMALL = {
    "zug-steady": replace(WORKLOADS["zug-steady"], measure_s=4.0),
    "zug-bulk": replace(WORKLOADS["zug-bulk"], measure_s=2.0),
    "crash-storm": WORKLOADS["crash-storm"],        # the schedule needs its 20 s
    "export-round": replace(WORKLOADS["export-round"], n_blocks=200),
}
SIMULATED = {m.name for m in END_TO_END if m.exact}


@pytest.mark.parametrize("name", list(SMALL))
def test_same_seed_repeats_and_a_different_seed_trips_the_determinism_check(name):
    workload = SMALL[name]
    first, build_s, wall_s = repeat(workload, 42)
    second = repeat(workload, 42)[0]
    other = repeat(workload, 43)[0]
    assert build_s >= 0 and wall_s > 0
    assert first.problems == [] and first.failed == 0 and first.attempted > 0
    assert SIMULATED - {"recorded_share_pct"} <= set(first.exact)
    assert all(first.exact[metric] > 0 for metric in SIMULATED - {"recorded_share_pct"})
    assert check_determinism([first, second]) == []
    problems = check_determinism([first, second, other])
    assert len(problems) == 1 and problems[0].startswith("repeat 2 differs")


def test_crash_storm_goes_through_a_view_change_and_recovery():
    outcome = repeat(SMALL["crash-storm"], 42)[0]
    assert outcome.exact["bft.view_changes"] >= 1
    assert outcome.exact["core.sync_completed"] >= 1
    assert outcome.exact["obs.events_recorded"] > 0
    assert outcome.exact["sim.outage_s"] > 0.5       # the primary crash shows


@pytest.mark.parametrize("name", ["zug-steady", "crash-storm", "export-round"])
def test_traced_repeat_accounts_for_itself_and_changes_nothing(name):
    workload = SMALL[name]
    untraced = repeat(workload, 42)[0]
    traced, wall_s, spans, seen = traced_repeat(workload, 42)
    assert check_determinism([untraced, traced]) == []
    metrics = layer_metrics(spans, seen, wall_s, traced.requests, traced.counters,
                            traced.exact["sim.net_bytes_per_req"])
    total_self_s = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS) / 1e3
    assert total_self_s == pytest.approx(wall_s, rel=0.05)
    consensus = name != "export-round"
    for layer in ("bus", "bft", "core"):
        assert (metrics[f"{layer}.calls"] > 0) == consensus
    assert (metrics["obs.calls"] > 0) == (name == "crash-storm")
    assert metrics["wire.encode_us_per_msg"] > 0 and metrics["wire.decode_us_per_msg"] > 0
    assert metrics["wire.reencode_ratio"] > 1.0
