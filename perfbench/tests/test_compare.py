"""compare: verdicts by the bounds, equality for what repeats exactly."""

import copy

from perfbench.compare import compare_results, verdict
from perfbench.metrics import BY_NAME


def _result(wall=1.0, quartiles=(0.99, 1.01), failed=0, latency=12.8, calls=100):
    flat = {"median": 0.2, "p25": 0.2, "p75": 0.2, "min": 0.2, "n": 7}
    return {"workloads": {"zug-steady": {
        "attempted": 1000, "failed": failed, "head": "ab", "events_fired": 5,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "sim_latency_p50_ms": {"value": latency, "unit": "sim_ms"},
            "bft.calls": {"value": calls, "unit": "count"},
            "bft.self_ms": {"value": 30.0, "unit": "ms"},
        },
        "spread": {"wall_s": {"median": wall, "p25": quartiles[0], "p75": quartiles[1],
                              "min": quartiles[0], "n": 15},
                   "import_s": flat, "build_s": flat},
    }}}


def _verdicts(base, new):
    rows, ok = compare_results(base, new)
    return {row[1]: row[-1] for row in rows}, ok


def test_host_metric_verdicts_follow_the_bound():
    wall = BY_NAME["wall_s"]                     # lower is better, bound 20 %
    assert verdict(wall, 1.0, 1.10) == "unchanged"
    assert verdict(wall, 1.0, 1.21) == "regressed"
    assert verdict(wall, 1.0, 0.75) == "improved"
    assert verdict(wall, 1.0, 0.75, base_spread=0.25) == "unresolved"
    assert verdict(wall, 1.0, 1.5, new_spread=0.21) == "unresolved"


def test_a_regressed_row_fails_the_comparison():
    verdicts, ok = _verdicts(_result(), _result(wall=1.3, quartiles=(1.29, 1.31)))
    assert verdicts["wall_s"] == "regressed" and not ok
    verdicts, ok = _verdicts(_result(), _result(wall=1.3, quartiles=(1.0, 1.6)))
    assert verdicts["wall_s"] == "unresolved" and ok


def test_exact_metrics_are_compared_for_equality_not_by_noise():
    verdicts, ok = _verdicts(_result(), _result(calls=101, latency=12.81))
    assert verdicts["bft.calls"] == "behaviour-change"
    assert verdicts["sim_latency_p50_ms"] == "behaviour-change"     # inside its 1 % bound
    assert verdicts["bft.self_ms"] == "-"                           # no bound: ratio only
    assert ok
    verdicts, ok = _verdicts(_result(), _result(latency=13.5))
    assert verdicts["sim_latency_p50_ms"] == "regressed" and not ok


def test_any_rise_in_failed_share_fails():
    verdicts, ok = _verdicts(_result(), _result(failed=1))
    assert verdicts["failed_share"] == "regressed" and not ok
    same = _result()
    verdicts, ok = _verdicts(same, copy.deepcopy(same))
    assert ok and set(verdicts.values()) <= {"unchanged", "-"}
