"""Causal tracing: per-message contexts, Lamport clocks, and the flow DAG.

The runtime layer's single emission funnel (``BaseEnv._emit``) stamps
every outbound message with a :class:`CausalContext` — the origin node,
the origin's Lamport clock after the send tick, and the per-node index of
the newest trace event on the origin.  The context rides the *transport
envelope*, never the wire body: the simulator carries it alongside the
scheduled delivery, the TCP runtime puts it in an optional frame-header
extension (high bit of the length prefix), and the multiprocess runtime
adds a slot to the queue tuple.  Protocol code is untouched; the clock
ticks identically in traced and untraced runs, so tracing never perturbs
protocol behaviour.

Event identity is ``node#idx`` with a **per-node** index, not the
cluster-wide trace sequence: a context's ``parent`` refers to an event on
the *origin* node, which in a multiprocess run lives in that worker's own
trace shard.  Per-node indexes make shard merging a pure reordering
(:func:`merge_shards`) with no renumbering of causal references.

Timestamp domains (documented, deliberately not unified): the simulator
stamps shared virtual time (cross-node deltas are exact); the TCP and
multiprocess runtimes stamp per-node relative real time (cross-node
deltas are debug-grade).  Lamport clocks and cause edges are valid in
every domain; per-hop latencies are exact only in the simulator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Annotated, Iterable, Mapping, NamedTuple

from repro.obs.fold import fold_trace
from repro.obs.spans import PhaseStats
from repro.obs.trace import TraceEvent
from repro.wire.codec import Biased, WireStruct

#: The request-lifecycle event names, in protocol order.
LIFECYCLE = ("bus.rx", "bft.preprepare", "bft.commit", "req.logged")


@dataclass(frozen=True)
class CausalContext(WireStruct, tag=60):
    """What one emission knows about its own causal position.

    ``parent`` is the origin node's per-node index of the newest trace
    event at emission time (−1 when the origin has recorded no event —
    untraced runs, or sends before the first instrumentation point).
    Contexts are minted by ``BaseEnv._emit`` only; zuglint's DET008 rule
    flags construction or clock mutation anywhere else.
    """

    origin: str
    lamport: int
    parent: Annotated[int, Biased(1)] = -1  # −1 (no parent) encodes as 0


class CausalClock:
    """Per-env Lamport clock plus the inbound-context scope.

    Mutated only by the emission funnel (``stamp``), the receive path
    (``merge`` / the ``inbound`` scope set by ``BaseEnv.run_inbound``),
    and the bound tracer (``observe``).  The clock always ticks — traced
    or not — so enabling tracing never changes the values protocol code
    could observe (it observes none; the clock is write-only for the
    protocol layer).
    """

    __slots__ = ("origin", "lamport", "events", "last_event", "inbound", "carry")

    def __init__(self, origin: str) -> None:
        self.origin = origin
        self.lamport = 0
        #: Count of trace events recorded on this node (next per-node idx).
        self.events = 0
        #: Per-node idx of the newest trace event (−1 before the first).
        self.last_event = -1
        #: The context of the message currently being handled, if any.
        self.inbound: CausalContext | None = None
        #: Transports that frame bytes consult this before adding the
        #: causal header extension (in-process transports always carry).
        self.carry = False

    def stamp(self) -> CausalContext:
        """Tick for one emission and mint its context (funnel-only)."""
        self.lamport += 1
        return CausalContext(self.origin, self.lamport, self.last_event)

    def merge(self, ctx: CausalContext) -> None:
        """Receive-side Lamport merge: max with the sender's clock, tick."""
        if ctx.lamport > self.lamport:
            self.lamport = ctx.lamport
        self.lamport += 1

    def observe(self) -> tuple[int, int, str]:
        """Assign the next per-node event index; returns (idx, lamport, cause).

        Called by a bound tracer per recorded event.  ``cause`` is the
        event id (``node#idx``) of the inbound message's parent event on
        its origin node, or ``""`` when the event has no remote cause.
        """
        self.lamport += 1
        idx = self.events
        self.events += 1
        self.last_event = idx
        inbound = self.inbound
        if inbound is None or inbound.parent < 0:
            return idx, self.lamport, ""
        return idx, self.lamport, f"{inbound.origin}#{inbound.parent}"


def event_id(event: TraceEvent) -> str:
    """Canonical per-node identity (``node#idx``); "" if the event has none."""
    if event.idx < 0:
        return ""
    return f"{event.node}#{event.idx}"


# ---------------------------------------------------------------------------
# Shard merging: many per-process traces -> one canonical stream.
# ---------------------------------------------------------------------------


def _merge_key(event: TraceEvent) -> tuple[int, str, int]:
    # Lamport order is consistent with happens-before (each event ticks its
    # node's clock; a receive merges above the sender's stamp), so sorting
    # by (lamport, node, shard seq) is a deterministic topological-ish
    # order that depends only on shard *contents*, never on arrival order.
    return (event.lamport, event.node, event.seq)


def merge_shards(
    shards: Mapping[str, Iterable[TraceEvent]] | Iterable[Iterable[TraceEvent]],
) -> list[TraceEvent]:
    """Fold per-process trace shards into one canonical event stream.

    A pure function of the shard contents: any permutation of the input
    shards (dict order, worker completion order) yields byte-identical
    output.  Cluster-wide ``seq`` is reassigned in canonical order; the
    per-node ``idx`` — which causal references use — is untouched.
    """
    if isinstance(shards, Mapping):
        shard_lists: Iterable[Iterable[TraceEvent]] = shards.values()
    else:
        shard_lists = shards
    merged = sorted(
        (event for shard in shard_lists for event in shard), key=_merge_key
    )
    return [event._replace(seq=seq) for seq, event in enumerate(merged)]


# ---------------------------------------------------------------------------
# The message-flow DAG.
# ---------------------------------------------------------------------------


class CausalEdge(NamedTuple):
    """One happens-before edge between two events (by trace ``seq``)."""

    parent: int
    child: int
    kind: str  # "message" (cross-node cause) | "program" (same-node order)


@dataclass
class CausalDag:
    """The reconstructed message-flow DAG plus its structural anomalies.

    Anomalies are *reported*, never raised: a DAG built from a corrupt or
    truncated trace is still inspectable, and the invariant oracle
    (:mod:`repro.obs.check`) turns the anomalies into findings.
    """

    events: list[TraceEvent] = field(default_factory=list)
    edges: list[CausalEdge] = field(default_factory=list)
    #: cause references ("node#idx") that resolve to no event in the trace.
    orphans: list[tuple[int, str]] = field(default_factory=list)
    #: event ids claimed by more than one event (shard-merge corruption).
    duplicate_ids: list[str] = field(default_factory=list)
    #: logical message edges delivered more than once: (cause id, node, name).
    duplicate_edges: list[tuple[str, str, str]] = field(default_factory=list)
    #: edges whose child's Lamport clock does not exceed the parent's.
    clock_regressions: list[CausalEdge] = field(default_factory=list)

    @property
    def message_edges(self) -> list[CausalEdge]:
        return [edge for edge in self.edges if edge.kind == "message"]

    def roots(self) -> list[int]:
        """Events with no incoming edge (bus receptions, injections)."""
        children = {edge.child for edge in self.edges}
        return [event.seq for event in self.events if event.seq not in children]

    def hop_latencies(self) -> dict[tuple[str, str], PhaseStats]:
        """Per (src, dst) node-pair latency over message edges.

        Exact under the simulator's shared virtual clock; debug-grade
        (per-node relative clocks, deltas may even be negative) on the
        TCP and multiprocess runtimes.
        """
        by_seq = {event.seq: event for event in self.events}
        hops: dict[tuple[str, str], PhaseStats] = {}
        for edge in self.message_edges:
            parent = by_seq[edge.parent]
            child = by_seq[edge.child]
            key = (parent.node, child.node)
            stats = hops.get(key)
            if stats is None:
                stats = hops[key] = PhaseStats(f"{parent.node}->{child.node}")
            stats.observe(child.t - parent.t)
        return hops

    @property
    def anomaly_count(self) -> int:
        return (
            len(self.orphans)
            + len(self.duplicate_ids)
            + len(self.duplicate_edges)
            + len(self.clock_regressions)
        )

    def to_dict(self, include_time: bool = True) -> dict:
        """Deterministic plain-dict rendering (canonical key and row order)."""
        vertices = []
        for event in self.events:
            row: dict[str, object] = {
                "seq": event.seq,
                "id": event_id(event),
                "node": event.node,
                "name": event.name,
                "lamport": event.lamport,
                "cause": event.cause,
            }
            if include_time:
                row["t"] = event.t
            if event.fields:
                row["f"] = dict(event.fields)
            vertices.append(row)
        return {
            "vertices": vertices,
            "edges": [
                {"parent": e.parent, "child": e.child, "kind": e.kind}
                for e in self.edges
            ],
            "anomalies": {
                "orphans": [list(item) for item in self.orphans],
                "duplicate_ids": list(self.duplicate_ids),
                "duplicate_edges": [list(item) for item in self.duplicate_edges],
                "clock_regressions": [
                    {"parent": e.parent, "child": e.child, "kind": e.kind}
                    for e in self.clock_regressions
                ],
            },
        }

    def fingerprint(self, include_time: bool = True) -> str:
        """SHA-256 over the canonical JSON rendering of the DAG."""
        payload = json.dumps(
            self.to_dict(include_time=include_time),
            separators=(",", ":"),
            sort_keys=True,
            ensure_ascii=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def build_dag(events: Iterable[TraceEvent]) -> CausalDag:
    """Reconstruct the happens-before DAG from a flat event stream.

    Edges: per-node program order (consecutive events on one node) plus
    cross-node message edges resolved from each event's ``cause``
    reference.  Structural problems — orphan causes, duplicate event ids,
    duplicate logical deliveries, Lamport regressions — are collected on
    the returned DAG rather than raised.
    """
    fold = fold_trace(events, links=True)
    dag = CausalDag(
        events=fold.events,
        edges=[CausalEdge(p, c, kind) for _, p, c, kind in fold.links],
        orphans=fold.orphans,
        duplicate_ids=fold.duplicate_ids,
        clock_regressions=[CausalEdge(p, c, kind) for _, p, c, kind in fold.regressions],
    )
    seen_deliveries: set[tuple[str, str, str]] = set()
    for pos, _, _, kind in fold.links:
        if kind != "message":
            continue
        event = fold.events[pos]
        delivery = (event.cause, event.node, event.name)
        if delivery in seen_deliveries:
            dag.duplicate_edges.append(delivery)
        else:
            seen_deliveries.add(delivery)
    return dag


# ---------------------------------------------------------------------------
# Cross-runtime comparison: the request-lifecycle projection.
# ---------------------------------------------------------------------------


def lifecycle_chains(
    events: Iterable[TraceEvent],
) -> dict[tuple[str, str], tuple[str, ...]]:
    """Per (node, digest): lifecycle event names in first-occurrence order.

    This is the projection of the DAG that is comparable *across*
    runtimes: which message completes a quorum (and therefore the exact
    cause edges and Lamport values) varies with real-transport
    interleaving, but every correct node must observe the same lifecycle
    chain for every logged payload.
    """
    chains: dict[tuple[str, str], list[str]] = {}
    for event in events:
        if event.name not in LIFECYCLE:
            continue
        digest = event.get("digest")
        if not isinstance(digest, str):
            continue
        chain = chains.setdefault((event.node, digest), [])
        if event.name not in chain:
            chain.append(event.name)
    return {key: tuple(chain) for key, chain in chains.items()}


def lifecycle_shape(events: Iterable[TraceEvent]) -> dict[str, object]:
    """Canonical summary of the lifecycle projection for shape comparison.

    ``chain_shapes`` is the sorted set of distinct *complete* per-(node,
    digest) chains; ``complete`` counts chains carrying every lifecycle
    mark, ``partial`` the in-flight remainder (run-end tails).  The
    consensus marks (``bft.preprepare`` → ``bft.commit`` →
    ``req.logged``) appear in protocol order in every chain on every
    runtime; ``bus.rx`` — a *local* observation, not a protocol step —
    leads the chain on in-order runtimes (sim, TCP's synchronous inject)
    but may float later when the runtime races the bus feed against
    consensus traffic (the multiprocess queue).
    """
    chains = lifecycle_chains(events)
    complete = [chain for chain in chains.values() if set(chain) == set(LIFECYCLE)]
    return {
        "nodes": len({node for node, _ in chains}),
        "complete": len(complete),
        "partial": len(chains) - len(complete),
        "chain_shapes": sorted({",".join(chain) for chain in complete}),
    }
