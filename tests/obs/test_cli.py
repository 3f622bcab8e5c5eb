"""``python -m repro.obs`` CLI tests."""

import hashlib
import io

from repro.obs import RecordingTracer, pair_request_spans, write_trace
from repro.obs.cli import main
from repro.scenarios import ScenarioConfig, SimulatedCluster

#: sha256 of ``repro obs dag`` stdout on the seed-42 trace below, recorded
#: before the per-hop table moved onto the shared accumulator; the table,
#: counts and fingerprint must not move.
DAG_STDOUT_SHA256 = "6d3b7ba93a932b0d9919bb6d390c5064b3d7a4b63771932f5b268c4070e1551d"


def _trace_file(tmp_path):
    tracer = RecordingTracer()
    tracer.emit("bus.rx", 1.000, "node-0", digest="aa", link=0)
    tracer.emit("bft.preprepare", 1.002, "node-0", digest="aa", view=0, seq=1)
    tracer.emit("bft.commit", 1.010, "node-0", digest="aa", view=0, seq=1)
    tracer.emit("req.logged", 1.011, "node-0", digest="aa", seq=1)
    tracer.emit("bus.rx", 2.000, "node-0", digest="bb", link=0)  # dropped
    tracer.emit("layer.dedup_drop", 2.001, "node-1", digest="aa", where="rx")
    tracer.emit("bft.viewchange.start", 3.0, "node-1", new_view=1)
    tracer.emit("bft.viewchange.end", 3.4, "node-1", view=1)
    path = str(tmp_path / "trace.jsonl")
    write_trace(tracer.iter_events(), path)
    return path, tracer


def test_summary_prints_phase_drop_and_stall_tables(tmp_path):
    path, tracer = _trace_file(tmp_path)
    out = io.StringIO()
    assert main(["summary", path], out=out) == 0
    text = out.getvalue()
    for expected in ("rx->propose", "propose->commit", "commit->log",
                     "end_to_end", "Dedup/filter drops", "View-change stalls",
                     "incomplete spans: 1"):
        assert expected in text
    # The printed totals come from the same pairing pass the tests use.
    report = pair_request_spans(tracer.iter_events())
    assert f"{report.end_to_end.mean * 1000:.3f} ms" in text


def test_summary_node_filter(tmp_path):
    path, _ = _trace_file(tmp_path)
    out = io.StringIO()
    assert main(["summary", path, "--node", "node-1"], out=out) == 0
    # node-1 paired no request spans: every count column is zero.
    assert "end_to_end" in out.getvalue()


def test_events_counts(tmp_path):
    path, _ = _trace_file(tmp_path)
    out = io.StringIO()
    assert main(["events", path], out=out) == 0
    text = out.getvalue()
    assert "bus.rx" in text and "8 events, 2 nodes" in text


def test_missing_file_exits_2(tmp_path):
    assert main(["summary", str(tmp_path / "nope.jsonl")], out=io.StringIO()) == 2


def test_corrupt_file_exits_2(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not json\n")
    assert main(["summary", str(path)], out=io.StringIO()) == 2


def test_summary_folds_the_trace_once(tmp_path, monkeypatch):
    import repro.obs.cli as cli
    import repro.obs.spans as spans

    path, _ = _trace_file(tmp_path)
    folds = []
    real = cli.fold_trace

    def counting(*args, **kwargs):
        folds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fold_trace", counting)
    monkeypatch.setattr(spans, "fold_trace", counting)
    assert main(["summary", path], out=io.StringIO()) == 0
    assert len(folds) == 1


def test_dag_stdout_is_pinned_on_a_seeded_cluster_trace(tmp_path):
    tracer = RecordingTracer()
    cluster = SimulatedCluster(
        ScenarioConfig(system="zugchain", seed=42, cycle_time_s=0.064),
        tracer=tracer,
    )
    cluster.run(duration_s=1.0, warmup_s=0.0)
    path = str(tmp_path / "trace.jsonl")
    write_trace(tracer.iter_events(), path)
    out = io.StringIO()
    assert main(["dag", path], out=out) == 0
    text = out.getvalue()
    assert "Per-hop latency (message edges)" in text
    assert hashlib.sha256(text.encode()).hexdigest() == DAG_STDOUT_SHA256
