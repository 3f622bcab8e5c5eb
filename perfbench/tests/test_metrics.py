"""The statistics the harness may report."""

import pytest

from perfbench.metrics import (
    END_TO_END, PER_LAYER, highest_supported_percentile, spread_share, summarize,
)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert highest_supported_percentile(25) is None      # host timings: median only
    assert highest_supported_percentile(99) is None
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(199) == 90.0     # 9.95 beyond p95
    assert highest_supported_percentile(200) == 95.0
    assert highest_supported_percentile(250) == 95.0     # 12 beyond p95, 2.5 beyond p99
    assert highest_supported_percentile(999) == 95.0
    assert highest_supported_percentile(1000) == 99.0


def test_summary_and_spread():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0 and summary["min"] == 1.0 and summary["n"] == 5
    assert spread_share(summary) == pytest.approx((summary["p75"] - summary["p25"]) / 3.0)
    assert summarize([2.0]) == {"median": 2.0, "p25": 2.0, "p75": 2.0, "min": 2.0, "n": 1}


def test_names_are_unique_and_only_end_to_end_metrics_carry_bounds():
    names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(metric.bound is not None for metric in END_TO_END)
    assert all(metric.bound is None for metric in PER_LAYER)
    assert len(PER_LAYER) <= 128
