"""The invariant oracle: juridical guarantees checked against a trace.

ROADMAP item 6 wants adversarial campaigns judged mechanically; this
module is the judge.  Given a trace (from any runtime — sim, TCP, or the
merged multiprocess shards) and the set of known-faulty nodes, it checks
the paper's juridical invariants and the causal DAG's structural health:

==========  ===============================================================
code        invariant
==========  ===============================================================
``OBS001``  **No commit divergence**: correct nodes that log a request at
            the same BFT sequence number log the same digest.
``OBS002``  **No omission**: a payload logged by a correct node is logged
            by every correct node that demonstrably kept running past the
            logging point (run-end tails and crashes are not omissions;
            a ``req.synced`` backfill via StateSync also satisfies the
            durability obligation — the node holds the payload in a
            checkpoint-verified block even though it missed the DECIDE).
``OBS003``  **Provenance**: every logged digest was received from the bus
            by at least one node (``bus.rx`` precedes ``req.logged``
            somewhere) — a digest with no reception anywhere was
            fabricated inside the consensus layer.
``OBS004``  **Bounded recovery**: view changes complete (and, when a bound
            is given, complete within it); an open stall at trace end
            means ordering never recovered.
``OBS005``  **Phase telescoping**: per-request phase latencies sum to the
            end-to-end latency exactly (float tolerance 1e-9).
``OBS006``  **DAG: orphan cause** — an event cites a causal parent absent
            from the trace (lost shard, truncated file).
``OBS007``  **DAG: duplicate identity** — two events claim one
            ``node#idx`` (corrupt merge).
``OBS008``  **DAG: Lamport regression** — an edge whose child does not
            advance the clock (broken context propagation).
==========  ===============================================================

Checks never raise on malformed traces; they report findings.  A finding
names the offending node and sequence/digest so a failing campaign run
points at the culprit, not at a boolean.  The trace is walked once
(:func:`repro.obs.fold.fold_trace`); each check reads the facts that walk
kept, so judging a trace builds neither the DAG's edges nor a span report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.fold import Logged, RequestSpan, TraceFold, ViewChangeStall, fold_trace
from repro.obs.trace import TraceEvent

#: Cross-node timestamp slack for the omission liveness guard (OBS002).
#: Zero-cost in the simulator's shared virtual clock; generous enough to
#: absorb the per-node clock offsets of the real-time runtimes.
DEFAULT_TAIL_SLACK_S = 0.25


@dataclass(frozen=True)
class OracleFinding:
    """One invariant violation, addressable to a node and sequence."""

    code: str
    message: str
    node: str = ""
    seq: int = -1
    digest: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "node": self.node,
            "seq": self.seq,
            "digest": self.digest,
        }


@dataclass
class OracleReport:
    """All findings from one oracle run plus what was checked."""

    findings: list[OracleFinding] = field(default_factory=list)
    checked_events: int = 0
    checked_nodes: int = 0
    faulty_nodes: tuple[str, ...] = ()
    #: The request spans OBS005 judged (closed by ``req.logged``), for a
    #: caller that also wants their phase statistics from the same walk.
    spans: list[RequestSpan] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def to_dicts(self) -> list[dict[str, object]]:
        return [finding.to_dict() for finding in self.findings]


def _check_divergence(
    logged: Sequence[Logged], correct: set[str]
) -> Iterable[OracleFinding]:
    # OBS001: per BFT seq, correct nodes must agree on the digest.
    by_seq: dict[int, dict[str, str]] = {}
    for event, digest, seq in logged:
        if event.node not in correct:
            continue
        if not isinstance(seq, int):
            continue
        by_seq.setdefault(seq, {})[event.node] = digest
    for seq in sorted(by_seq):
        digests = by_seq[seq]
        distinct: dict[str, list[str]] = {}
        for node, digest in digests.items():
            distinct.setdefault(digest, []).append(node)
        if len(distinct) <= 1:
            continue
        # The majority digest is the "agreed" one; every node on another
        # digest is named individually.
        majority = max(distinct, key=lambda d: (len(distinct[d]), d))
        for digest, nodes in sorted(distinct.items()):
            if digest == majority:
                continue
            for node in sorted(nodes):
                yield OracleFinding(
                    code="OBS001",
                    message=(
                        f"commit divergence at seq {seq}: {node} logged "
                        f"{digest[:16]}… while the majority logged "
                        f"{majority[:16]}…"
                    ),
                    node=node,
                    seq=seq,
                    digest=digest,
                )


def _check_omission(
    fold: TraceFold, correct: set[str], tail_slack_s: float
) -> Iterable[OracleFinding]:
    # OBS002: a digest logged by one correct node must be logged by every
    # correct node that kept producing events past t_log + slack (a node's
    # last-seen time starts at 0.0).  A StateSync backfill (req.synced)
    # counts: the node durably holds the payload inside a checkpoint-verified
    # block, it just never saw the DECIDE (message loss, partition, or
    # rejoining after a crash).
    logged_by: dict[str, dict[str, float]] = {}
    seq_of: dict[str, int] = {}
    for event, digest, seq in fold.logged:
        if event.node not in correct:
            continue
        logged_by.setdefault(digest, {})[event.node] = event.t
        if isinstance(seq, int):
            seq_of.setdefault(digest, seq)
    for digest in sorted(logged_by):
        nodes_logged = logged_by[digest]
        t_log = max(nodes_logged.values())
        for node in sorted(correct - set(nodes_logged)):
            last_event_t = fold.last_t.get(node, 0.0)
            if last_event_t <= t_log + tail_slack_s:
                continue  # stopped/crashed near the logging point: a tail
            if node in fold.synced_by.get(digest, ()):
                continue  # StateSync backfilled the block holding it
            yield OracleFinding(
                code="OBS002",
                message=(
                    f"omission: {node} never logged {digest[:16]}… although "
                    f"{len(nodes_logged)} correct node(s) logged it by "
                    f"t={t_log:.6f} and {node} was still running at "
                    f"t={last_event_t:.6f}"
                ),
                node=node,
                seq=seq_of.get(digest, -1),
                digest=digest,
            )


def _check_provenance(
    logged: Sequence[Logged], received: set[str]
) -> Iterable[OracleFinding]:
    # OBS003: gated on the trace containing receptions at all, so partial
    # traces (consensus-only instrumentation) don't false-positive.
    if not received:
        return
    for event, digest, seq in logged:
        if digest in received:
            continue
        yield OracleFinding(
            code="OBS003",
            message=(
                f"provenance: {event.node} logged {digest[:16]}… at seq "
                f"{seq} but no node ever received it from a bus — the "
                "payload was fabricated inside the consensus layer"
            ),
            node=event.node,
            seq=seq if isinstance(seq, int) else -1,
            digest=digest,
        )


def _check_view_changes(
    stalls: Sequence[ViewChangeStall], vc_bound_s: float | None
) -> Iterable[OracleFinding]:
    # OBS004: every stall must close; bounded when a bound is supplied.
    for stall in stalls:
        if stall.ended_at is None:
            yield OracleFinding(
                code="OBS004",
                message=(
                    f"view change on {stall.node} started at "
                    f"t={stall.started_at:.6f} never completed"
                ),
                node=stall.node,
            )
        elif vc_bound_s is not None and stall.duration > vc_bound_s:
            yield OracleFinding(
                code="OBS004",
                message=(
                    f"view change on {stall.node} took "
                    f"{stall.duration:.6f}s, over the {vc_bound_s:.6f}s bound"
                ),
                node=stall.node,
            )


def _check_telescoping(spans: Sequence[RequestSpan]) -> Iterable[OracleFinding]:
    # OBS005: the phase decomposition must telescope exactly.
    for span in spans:
        if not span.complete:
            continue
        drift = abs(sum(span.phases().values()) - span.end_to_end)
        if drift > 1e-9:
            yield OracleFinding(
                code="OBS005",
                message=(
                    f"phase latencies for {span.digest[:16]}… on {span.node} "
                    f"sum {drift:.3e}s away from the end-to-end latency"
                ),
                node=span.node,
                seq=span.seq if span.seq is not None else -1,
                digest=span.digest,
            )


def _check_dag(fold: TraceFold) -> Iterable[OracleFinding]:
    if not (fold.orphans or fold.duplicate_ids or fold.regressions):
        return
    # Names an event by its seq: the last one wins where a corrupt trace repeats it.
    by_seq = {event.seq: event for event in fold.events}
    for seq, cause in fold.orphans:
        event = by_seq[seq]
        yield OracleFinding(
            code="OBS006",
            message=(
                f"event {seq} ({event.name} on {event.node}) cites causal "
                f"parent {cause} which is absent from the trace"
            ),
            node=event.node,
            seq=seq,
        )
    for identity in fold.duplicate_ids:
        yield OracleFinding(
            code="OBS007",
            message=f"event identity {identity} is claimed by multiple events",
            node=identity.split("#", 1)[0],
        )
    for _, parent_seq, child_seq, kind in fold.regressions:
        child = by_seq[child_seq]
        yield OracleFinding(
            code="OBS008",
            message=(
                f"Lamport regression on {kind} edge "
                f"{parent_seq}->{child_seq}: {child.name} on {child.node} "
                "does not advance the clock past its parent"
            ),
            node=child.node,
            seq=child_seq,
        )


def check_trace(
    events: Iterable[TraceEvent],
    faulty: Iterable[str] = (),
    vc_bound_s: float | None = None,
    tail_slack_s: float = DEFAULT_TAIL_SLACK_S,
) -> OracleReport:
    """Run every invariant over ``events``; returns the full report.

    ``faulty`` names nodes known (from the scenario config) to be
    Byzantine or crashed: the agreement invariants quantify over the
    *correct* nodes only, as the protocol's guarantees do.
    """
    fold = fold_trace(events)
    faulty_set = frozenset(faulty)
    nodes = fold.nodes
    correct = nodes - faulty_set

    report = OracleReport(
        checked_events=len(fold.events),
        checked_nodes=len(nodes),
        faulty_nodes=tuple(sorted(faulty_set)),
        spans=fold.closed_spans,
    )
    report.findings.extend(_check_divergence(fold.logged, correct))
    report.findings.extend(_check_omission(fold, correct, tail_slack_s))
    report.findings.extend(_check_provenance(fold.logged, fold.received))
    report.findings.extend(_check_view_changes(fold.stalls, vc_bound_s))
    report.findings.extend(_check_telescoping(fold.closed_spans))
    report.findings.extend(_check_dag(fold))
    return report
