"""One walk over a trace: the facts every reader of it shares.

The invariant oracle (:mod:`repro.obs.check`), the span report
(:mod:`repro.obs.spans`) and the message-flow DAG (:mod:`repro.obs.causal`)
all read the same few things off a trace — which marks a request left on a
node, which stall is open, who owns an event identity, which cause resolves
to which event.  :func:`fold_trace` derives them in one pass over the
events in ``seq`` order, and the rules (first mark wins, a span closes on
``req.logged``, first identity wins, what an orphan and a Lamport regression
are) are written here and nowhere else; the three readers are views over a
:class:`TraceFold`.  A fold never raises on a malformed trace: records it
cannot place are skipped, anomalies are collected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from repro.obs.trace import TraceEvent

#: Event name → span mark attribute.
_MARKS = {
    "bus.rx": "rx_t",
    "bft.preprepare": "preprepare_t",
    "bft.commit": "commit_t",
    "req.logged": "logged_t",
}

#: Edge kinds, indexed by their rank among one child's incoming edges.
EDGE_KINDS = ("program", "message")

_BY_SEQ = attrgetter("seq")


@dataclass
class RequestSpan:
    """All marks observed for one (node, digest)."""

    node: str
    digest: str
    rx_t: float | None = None
    preprepare_t: float | None = None
    commit_t: float | None = None
    logged_t: float | None = None
    seq: int | None = None  # BFT sequence number, from req.logged

    @property
    def complete(self) -> bool:
        return None not in (self.rx_t, self.preprepare_t, self.commit_t, self.logged_t)

    @property
    def end_to_end(self) -> float:
        if not self.complete:
            raise ValueError(f"span {self.digest} on {self.node} is incomplete")
        return self.logged_t - self.rx_t

    def phases(self) -> dict[str, float]:
        try:
            return {
                "rx->propose": self.preprepare_t - self.rx_t,
                "propose->commit": self.commit_t - self.preprepare_t,
                "commit->log": self.logged_t - self.commit_t,
            }
        except TypeError:  # every mark is an operand, so: some mark is None
            raise ValueError(f"span {self.digest} on {self.node} is incomplete") from None


@dataclass
class ViewChangeStall:
    """One node's view-change interval (suspicion → new view entered)."""

    node: str
    started_at: float
    ended_at: float | None = None

    @property
    def duration(self) -> float | None:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at


#: One ``req.logged`` record: (event, digest, its ``seq`` field as found).
Logged = tuple[TraceEvent, str, object]

#: An edge as the fold keeps it: (child's position in ``events``, parent
#: ``seq``, child ``seq``, kind).
Edge = tuple[int, int, int, str]


@dataclass
class TraceFold:
    """What one walk learned."""

    #: The trace in ``seq`` order (stable: a repeated ``seq`` keeps input order).
    events: list[TraceEvent]
    #: Each node's newest event; its keys are the nodes of the trace.
    last_on_node: dict[str, TraceEvent] = field(default_factory=dict)
    #: Each node's latest timestamp above zero.
    last_t: dict[str, float] = field(default_factory=dict)
    #: ``req.logged`` records in trace order.
    logged: list[Logged] = field(default_factory=list)
    #: digest → nodes that hold it through a StateSync backfill.
    synced_by: dict[str, set[str]] = field(default_factory=dict)
    #: Digests some node received from a bus.
    received: set[str] = field(default_factory=set)
    #: Spans closed by ``req.logged``, in completion order.
    closed_spans: list[RequestSpan] = field(default_factory=list)
    #: Spans never logged on their node (dropped requests, crash, run end).
    open_spans: dict[tuple[str, str], RequestSpan] = field(default_factory=dict)
    stalls: list[ViewChangeStall] = field(default_factory=list)
    #: Causes ("node#idx") that resolve to no event: (citing seq, cause).
    orphans: list[tuple[int, str]] = field(default_factory=list)
    #: Event ids claimed by a second event (shard-merge corruption).
    duplicate_ids: list[str] = field(default_factory=list)
    #: Edges whose child's Lamport clock does not exceed the parent's.
    regressions: list[Edge] = field(default_factory=list)
    #: Every edge, when asked for.
    links: list[Edge] = field(default_factory=list)

    @property
    def nodes(self) -> set[str]:
        return set(self.last_on_node)


def _in_child_order(edges: list[tuple[int, int, int, int]]) -> list[Edge]:
    # (child position, rank, parent seq, child seq) sorts by child, and a
    # child's program edge before its message edge.
    edges.sort()
    return [(pos, parent, child, EDGE_KINDS[rank]) for pos, rank, parent, child in edges]


def fold_trace(events: Iterable[TraceEvent], links: bool = False) -> TraceFold:
    """Walk ``events`` once in ``seq`` order.

    ``links`` also keeps every edge (the DAG wants them, the oracle only the
    anomalies).  Causes are resolved after the walk, against every identity
    in the trace, so a parent later in ``seq`` order is still found.
    """
    fold = TraceFold(events=sorted(events, key=_BY_SEQ))
    last_on_node = fold.last_on_node
    last_t = fold.last_t
    open_spans = fold.open_spans
    open_stalls: dict[str, ViewChangeStall] = {}
    by_id: dict[str, TraceEvent] = {}
    caused: list[tuple[int, TraceEvent]] = []
    edges: list[tuple[int, int, int, int]] = []
    regressions: list[tuple[int, int, int, int]] = []
    mark_of = _MARKS.get
    for pos, event in enumerate(fold.events):
        seq, t, node, name, _, idx, lamport, cause = event
        if t > last_t.get(node, 0.0):
            last_t[node] = t
        if idx >= 0:
            # First identity wins: a later claimant is reported, never cited.
            identity = f"{node}#{idx}"
            if identity in by_id:
                fold.duplicate_ids.append(identity)
            else:
                by_id[identity] = event
        previous = last_on_node.get(node)
        if previous is not None:
            if links:
                edges.append((pos, 0, previous.seq, seq))
            if 0 < lamport <= previous.lamport:
                regressions.append((pos, 0, previous.seq, seq))
        last_on_node[node] = event
        if cause:
            caused.append((pos, event))

        mark = mark_of(name)
        if mark is not None:
            digest = event.get("digest")
            # A malformed record is skipped: pairing is best-effort, never raises.
            if isinstance(digest, str):
                key = (node, digest)
                span = open_spans.get(key)
                if span is None:
                    span = open_spans[key] = RequestSpan(node, digest)
                # First mark wins: a re-proposed request (view change) keeps
                # its original preprepare time so phases still telescope.
                if getattr(span, mark) is None:
                    setattr(span, mark, t)
                if name == "bus.rx":
                    fold.received.add(digest)
                elif name == "req.logged":
                    bft_seq = event.get("seq")
                    if isinstance(bft_seq, int):
                        span.seq = bft_seq
                    fold.closed_spans.append(open_spans.pop(key))
                    fold.logged.append((event, digest, bft_seq))
        elif name == "req.synced":
            digest = event.get("digest")
            if isinstance(digest, str):
                fold.synced_by.setdefault(digest, set()).add(node)
        elif name == "bft.viewchange.start":
            # An escalation (voting for v+1 mid-change) extends the open stall.
            if node not in open_stalls:
                stall = open_stalls[node] = ViewChangeStall(node, t)
                fold.stalls.append(stall)
        elif name == "bft.viewchange.end":
            stall = open_stalls.pop(node, None)
            if stall is not None:
                stall.ended_at = t

    for pos, event in caused:
        parent = by_id.get(event.cause)
        if parent is None:
            fold.orphans.append((event.seq, event.cause))
            continue
        if links:
            edges.append((pos, 1, parent.seq, event.seq))
        if event.lamport <= parent.lamport:
            regressions.append((pos, 1, parent.seq, event.seq))
    fold.regressions = _in_child_order(regressions)
    fold.links = _in_child_order(edges)
    return fold
