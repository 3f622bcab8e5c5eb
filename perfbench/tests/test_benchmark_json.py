"""BENCHMARK.json says what the harness measures, inside the contract's limits."""

import json
import re
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "-m", "perfbench", "run"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    # 4 + 22 runs per workload, each run_seconds of timed repeats plus about
    # 8 s of set-up launches, warm-up and checks, inside the 3420 s cap.
    runs = 4 + 22 * len(DOC["workloads"])
    assert runs * (DOC["run_seconds"] + 8) < 3420


def test_workloads_match_the_harness():
    assert DOC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert 2 <= len(DOC["workloads"]) <= 8
    assert all(NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DOC["workloads"])


def test_metrics_match_the_tables():
    assert DOC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert DOC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    every = DOC["end_to_end"] + DOC["per_layer"]
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"])
               and m["better"] in ("lower", "higher") for m in every)
    assert len({m["name"] for m in every} | {w["name"] for w in DOC["workloads"]}) \
        == len(every) + len(DOC["workloads"])
    assert 1 <= len(DOC["end_to_end"]) <= 16 and 1 <= len(DOC["per_layer"]) <= 128


def test_setup_s_is_there_with_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
