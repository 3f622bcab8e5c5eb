"""Compare two result files by the benchmark's own bounds.

One row per (workload, metric).  Verdicts for bounded host metrics:
``improved`` / ``unchanged`` / ``regressed`` by the metric's bound, or
``unresolved`` when a side's own p25-p75 spread is wider than the bound,
so the medians cannot settle it.  Metrics that repeat exactly under a
seed are compared for equality; a difference is a ``behaviour-change``,
never noise, and a ``regressed`` one when it is bounded and worse by
more than the bound.  Per-layer host times carry no bound and get the
ratio only.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.metrics import BY_NAME, Metric, spread_share


def _own_spread(result: dict, name: str) -> float:
    """A side's p25-p75 spread of ``name`` as a share of its median; 0 if unknown."""
    spread = result["spread"]
    if name == "wall_s":
        return spread_share(spread["wall_s"])
    if name == "setup_s":
        imports, builds = spread["import_s"], spread["build_s"]
        return ((imports["p75"] - imports["p25"] + builds["p75"] - builds["p25"])
                / (imports["median"] + builds["median"]))
    return 0.0  # peak_rss_mb is one reading per run


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base if base else 0.0
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, base: float, new: float,
            base_spread: float = 0.0, new_spread: float = 0.0) -> str:
    if metric.exact:
        if new == base:
            return "unchanged"
        if metric.bound is not None and worsening(metric, base, new) > metric.bound:
            return "regressed"
        return "behaviour-change"
    if metric.bound is None:
        return "-"
    if max(base_spread, new_spread) > metric.bound:
        return "unresolved"
    worse = worsening(metric, base, new)
    if worse > metric.bound:
        return "regressed"
    if worse < -metric.bound:
        return "improved"
    return "unchanged"


def compare_results(base: dict, new: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, base, new, unit, ratio, verdict)`` and pass/fail."""
    rows, ok = [], True
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        rose = share_b > share_a
        rows.append((name, "failed_share", share_a, share_b, "fraction", None,
                     "regressed" if rose else "unchanged"))
        ok = ok and not rose
        for key in ("head", "events_fired"):
            rows.append((name, key, a[key], b[key], "", None,
                         "unchanged" if a[key] == b[key] else "behaviour-change"))
        for metric_name, entry in a["metrics"].items():
            if metric_name not in b["metrics"]:
                continue
            metric = BY_NAME[metric_name]
            old, cur = entry["value"], b["metrics"][metric_name]["value"]
            outcome = verdict(metric, old, cur, _own_spread(a, metric_name),
                              _own_spread(b, metric_name))
            rows.append((name, metric_name, old, cur, metric.unit,
                         cur / old if old else None, outcome))
            ok = ok and outcome != "regressed"
    return rows, ok


def format_rows(rows: list[tuple]) -> str:
    lines = [f"{'workload':13s} {'metric':28s} {'base':>14s} {'new':>14s} "
             f"{'unit':8s} {'new/base':>22s}  verdict"]
    for workload, metric, old, cur, unit, ratio, outcome in rows:
        def show(value) -> str:
            return f"{value:14.6g}" if isinstance(value, (int, float)) else f"{str(value)[:14]:>14s}"
        # Every ratio carries its base so it can be read on its own.
        ratio_text = f"{ratio:.4f} of {old:.6g}" if ratio is not None else ""
        lines.append(f"{workload:13s} {metric:28s} {show(old)} {show(cur)} "
                     f"{unit:8s} {ratio_text:>22s}  {outcome}")
    return "\n".join(lines)


def main(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    rows, ok = compare_results(base, new)
    print(format_rows(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("\n" + ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 0 if ok else 1
