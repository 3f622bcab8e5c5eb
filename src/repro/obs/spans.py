"""Span pairing: derive per-request phase latencies from a flat trace.

The tracer records *points* (``bus.rx``, ``bft.preprepare``, ``bft.commit``,
``req.logged``); :func:`repro.obs.fold.fold_trace` pairs them into
per-request spans keyed by ``(node, digest)``, and this module decomposes the
end-to-end latency the paper reports (bus reception → finalized commit,
Fig. 6/7) into three phases:

========================  ====================================================
phase                     interval
========================  ====================================================
``rx->propose``           bus reception → preprepare accepted on this node
``propose->commit``       preprepare accepted → commit quorum reached
``commit->log``           commit quorum → request LOGged (block builder)
========================  ====================================================

The three phases telescope, so their sum equals the end-to-end latency by
construction — the conformance test holds the decomposition to within
1e-9 s of the scenario's :class:`~repro.sim.monitor.LatencyRecorder`.

Robustness contract: spans may complete out of order (commit for request
B before request A), and spans that never complete (dropped requests,
crashes, run end) are reported as *incomplete*, never raised on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.fold import RequestSpan, ViewChangeStall, fold_trace
from repro.obs.trace import TraceEvent

#: Phase names in causal order.
PHASES = ("rx->propose", "propose->commit", "commit->log")


@dataclass
class PhaseStats:
    """Aggregate statistics of one phase across spans."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            self.minimum = min(self.minimum, value)
            self.maximum = max(self.maximum, value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass
class SpanReport:
    """Paired spans plus the per-phase aggregates."""

    spans: list[RequestSpan] = field(default_factory=list)
    incomplete: list[RequestSpan] = field(default_factory=list)
    phase_stats: dict[str, PhaseStats] = field(default_factory=dict)
    end_to_end: PhaseStats = field(default_factory=lambda: PhaseStats("end_to_end"))

    @property
    def incomplete_count(self) -> int:
        return len(self.incomplete)


def span_report(
    closed: Iterable[RequestSpan],
    still_open: Iterable[RequestSpan] = (),
    node: str | None = None,
    since: float | None = None,
) -> SpanReport:
    """Phase statistics over a fold's spans (closed ones in completion order).

    ``node`` keeps one node's view (phase sums then match that node's
    latency recorder); ``since`` drops spans logged before a warmup cutoff,
    mirroring ``LatencyRecorder.since``.
    """
    report = SpanReport(
        phase_stats={name: PhaseStats(name) for name in PHASES},
    )
    for span in closed:
        if node is not None and span.node != node:
            continue
        if not span.complete:
            report.incomplete.append(span)
            continue
        if since is not None and span.logged_t < since:
            continue
        report.spans.append(span)
        for name, value in span.phases().items():
            report.phase_stats[name].observe(value)
        report.end_to_end.observe(span.end_to_end)
    # Spans still open at run end (dropped requests, crash) are incomplete.
    for span in sorted(still_open, key=lambda span: (span.node, span.digest)):
        if node is None or span.node == node:
            report.incomplete.append(span)
    return report


def pair_request_spans(
    events: Iterable[TraceEvent],
    node: str | None = None,
    since: float | None = None,
) -> SpanReport:
    """Pair request-lifecycle events into spans and report their phase
    statistics; ``node`` and ``since`` as in :func:`span_report`."""
    fold = fold_trace(events)
    return span_report(fold.closed_spans, fold.open_spans.values(), node, since)


def pair_view_changes(events: Iterable[TraceEvent]) -> list[ViewChangeStall]:
    """Pair ``bft.viewchange.start``/``end`` into per-node stall intervals.

    Escalations (a node voting for view v+1 while still changing views)
    extend the open interval rather than opening a second one — the stall
    the operator cares about is "ordering was halted from t0 to t1".
    """
    return fold_trace(events).stalls
