"""What a traced run costs, counted rather than timed.

The oracle walks a trace once and materialises neither the DAG's edges nor
the span report's statistics; a traced ``run()`` judges its trace once (the
phases on the result come from that same walk); and a recorded event is a
tuple of scalars, not an instance with a ``__dict__``.
"""

import tracemalloc

import repro.obs.causal
import repro.obs.check
import repro.obs.fold
import repro.obs.spans
import repro.scenarios.cluster
from repro.obs import RecordingTracer, build_dag, check_trace, pair_request_spans
from repro.obs.trace import TraceEvent
from repro.scenarios import ScenarioConfig, SimulatedCluster

NODES = ("node-0", "node-1", "node-2", "node-3")
MARKS = ("bus.rx", "bft.preprepare", "bft.commit", "req.logged", "ckpt.stable")


def _synthetic(n_events=1000):
    """A healthy causally annotated trace: full lifecycles on four nodes."""
    events, idx = [], dict.fromkeys(NODES, 0)
    for seq in range(n_events):
        request, step = divmod(seq, len(NODES) * len(MARKS))
        mark, node = MARKS[step // len(NODES)], NODES[step % len(NODES)]
        cause = f"node-0#{idx['node-0'] - 1}" if node != "node-0" and idx["node-0"] else ""
        events.append(TraceEvent(
            seq=seq, t=seq * 0.001, node=node, name=mark,
            fields=(("digest", f"{request:064x}"), ("seq", request)),
            idx=idx[node], lamport=seq + 1, cause=cause,
        ))
        idx[node] += 1
    return events


def _counting(monkeypatch, module, name):
    """Swap ``module.name`` for a subclass that counts its constructions."""
    base, made = getattr(module, name), []

    class Counting(base):
        def __init__(self, *args, **kwargs):
            made.append(name)
            if not issubclass(base, tuple):  # a tuple is complete after __new__
                super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, name, Counting)
    return made


def _calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call through the module global is kept."""
    wrapped, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _keyed_sorts(monkeypatch, *modules):
    """Shadow ``sorted`` in ``modules``; keeps the module of every keyed call."""
    keyed = []
    for module in modules:
        def counted(iterable, _name=module.__name__, **kwargs):
            if "key" in kwargs:
                keyed.append(_name)
            return sorted(iterable, **kwargs)

        monkeypatch.setattr(module, "sorted", counted, raising=False)
    return keyed


def test_the_oracle_builds_no_edges_and_no_phase_stats_and_sorts_once(monkeypatch):
    events = _synthetic()
    edges = _counting(monkeypatch, repro.obs.causal, "CausalEdge")
    stats = _counting(monkeypatch, repro.obs.spans, "PhaseStats")
    sorts = _keyed_sorts(monkeypatch, repro.obs.fold, repro.obs.check,
                         repro.obs.causal, repro.obs.spans)
    report = check_trace(events)
    assert report.ok and report.checked_events == 1000
    assert len(report.spans) == 200
    assert edges == [] and stats == []
    # Sorting the events is the only sort with a key; it happens in the fold.
    assert sorts == ["repro.obs.fold"]
    # The counters do count: the DAG and the span report are still built on request.
    assert len(build_dag(events).edges) == len(edges) > 1000
    assert pair_request_spans(events).end_to_end.count == 200 and len(stats) == 4


def test_a_traced_run_is_judged_once_and_check_invariants_once_more(monkeypatch):
    judged = _calls(monkeypatch, repro.scenarios.cluster, "check_trace")
    walks = (_calls(monkeypatch, repro.obs.check, "fold_trace"),
             _calls(monkeypatch, repro.obs.spans, "fold_trace"))
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain", seed=7),
                               tracer=RecordingTracer())
    result = cluster.run(duration_s=2.0)
    assert len(judged) == 1
    # The phases on the result come from the oracle's walk, not a second one.
    assert [len(calls) for calls in walks] == [1, 0]
    assert result.findings == [] and result.phases["end_to_end"]["count"] > 0
    assert cluster.check_invariants().ok
    assert len(judged) == 2


def test_a_recorded_event_retains_a_tuple_not_an_instance_dict():
    tracer = RecordingTracer()
    digests = [f"{i:064x}" for i in range(10_000)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i, digest in enumerate(digests):
            tracer.emit("bft.commit", i * 0.001, "node-1", seq=i, view=0, digest=digest)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 437 B here (CPython 3.11): the sorted fields tuple (232 B), seq and t, a
    # list slot and the 104-byte event.  The frozen dataclass it replaced: 469 B.
    assert (after - before) / len(digests) <= 450
