"""Deterministic structured tracing for protocol code.

Protocol components (BFT replica, ZugChain layer, bus reception, export
handler, data center) call :meth:`Tracer.emit` at named points; each call
appends one :class:`TraceEvent` stamped with *virtual* time, the node id,
and a monotonically increasing sequence number.  Because events carry only
scalars derived from protocol state — never wall-clock readings, object
reprs, or unordered-container formatting — two identical-seed runs produce
byte-identical traces, and a traced run produces byte-identical block
hashes to an untraced one (the tracer reads state, it never mutates it).

Tracing is **off by default**: every component holds :data:`NULL_TRACER`,
whose ``emit`` is a no-op, and hot call sites guard field construction
behind ``tracer.enabled`` so the untraced fast path pays a single
attribute read (benchmarked in ``benchmarks/bench_obs_overhead.py``).

Event taxonomy (see DESIGN.md "Observability layer" for semantics):

==========================  =====================================================
name                        emitted when
==========================  =====================================================
``bus.rx``                  a node first observes a request (bus or injection)
``layer.dedup_drop``        the communication layer filters a duplicate
``bft.preprepare``          a replica accepts a preprepare for (view, seq)
``bft.prepare``             an instance reaches the prepared quorum
``bft.commit``              an instance reaches the commit quorum
``req.logged``              the request is LOGged (end of its span)
``bft.viewchange.start``    a replica starts voting for a new view
``bft.viewchange.end``      a replica enters a new view (or abandons the
                            change after proof the old view is live)
``bft.gap.fetch``           a stalled replica asks a peer for decided instances
``bft.gap.filled``          a commit certificate fills an execution gap
``ckpt.stable``             a checkpoint certificate becomes stable
``export.round.start``      a data center begins an export round
``export.read_done``        the read phase of an export round completes
``export.verify_done``      the verify phase completes
``export.delete_done``      the delete phase completes (round finished)
``export.block_sent``       a replica serves blocks to a data center
``export.block_acked``      a data center receives a replica's delete ack
``export.round.aborted``    a data center drops a round fed inconsistent blocks
``chain.pruned``            a chain drops blocks below a delete certificate
==========================  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (causal imports us)
    from repro.obs.causal import CausalClock

#: Every event name the built-in instrumentation emits (summary tooling
#: groups on these; emitting an unlisted name is allowed for experiments).
EVENT_TAXONOMY = (
    "bus.rx",
    "layer.dedup_drop",
    "bft.preprepare",
    "bft.prepare",
    "bft.commit",
    "req.logged",
    "req.synced",
    "bft.viewchange.start",
    "bft.viewchange.end",
    "bft.gap.fetch",
    "bft.gap.filled",
    "ckpt.stable",
    "export.round.start",
    "export.read_done",
    "export.verify_done",
    "export.delete_done",
    "export.block_sent",
    "export.block_acked",
    "export.round.retried",
    "export.round.aborted",
    "export.session.resumed",
    "chain.pruned",
    "chaos.fault.applied",
    "chaos.fault.cleared",
    "node.crashed",
    "node.recovered",
)

#: Field value types a trace record may carry.  Deliberately scalar-only:
#: containers have no canonical rendering and bytes must be hex-encoded by
#: the caller so the JSONL sink never guesses.
_SCALAR_TYPES = (str, int, float, bool)


class TraceEvent(NamedTuple):
    """One append-only trace record: an immutable tuple of scalars.

    ``fields`` is a tuple of (key, value) pairs sorted by key — a stable
    order regardless of the keyword order at the emit site, so sinks write
    identical bytes for identical protocol states.

    Causal annotations (``idx``, ``lamport``, ``cause``) are assigned by
    the tracer when the emitting node's env has a bound
    :class:`~repro.obs.causal.CausalClock`; their defaults mean "no causal
    information" and keep pre-causal traces decodable byte-for-byte.
    ``idx`` is the per-node event index (``node#idx`` is the event's
    cluster-unique identity, stable across shard merges); ``cause`` is the
    ``node#idx`` of the event that caused the message being handled when
    this event was recorded, or ``""``.
    """

    seq: int
    t: float
    node: str
    name: str
    fields: tuple[tuple[str, object], ...] = ()
    idx: int = -1
    lamport: int = 0
    cause: str = ""

    def get(self, key: str, default: object = None) -> object:
        for field_key, value in self.fields:
            if field_key == key:
                return value
        return default


class Tracer:
    """No-op base tracer: the interface plus the disabled behaviour.

    ``enabled`` is a class attribute read on the hot path; call sites that
    would compute fields (hex digests, lookups) guard on it::

        if self.tracer.enabled:
            self.tracer.emit("bft.commit", self.env.now(), self.id,
                             seq=seq, digest=digest.hex())
    """

    enabled: bool = False

    def emit(self, name: str, t: float, node: str, **fields: object) -> None:
        """Record one event (no-op here; overridden by recording tracers)."""


class NullTracer(Tracer):
    """Explicit alias of the disabled tracer, for readable wiring code."""


#: Shared disabled tracer: safe to share since it holds no state.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Append-only in-memory tracer with a cluster-wide sequence counter.

    One instance is shared by every node of a cluster, so ``seq`` gives a
    total order over all events consistent with virtual-time causality
    (the discrete-event kernel fires one callback at a time; the asyncio
    runtime serializes on the event loop).
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._seq = 0
        self._clocks: dict[str, "CausalClock"] = {}

    def bind_clock(self, node: str, clock: "CausalClock") -> None:
        """Attach a node env's causal clock so its events carry identity.

        Binding is what turns causal annotation on for a node: unbound
        nodes record plain events (idx −1, no cause) exactly as before.
        """
        self._clocks[node] = clock

    def emit(self, name: str, t: float, node: str, **fields: object) -> None:
        for key, value in fields.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise ProtocolError(
                    f"trace field {key}={value!r} is not a scalar; hex-encode "
                    "bytes and summarize containers before emitting"
                )
        clock = self._clocks.get(node)
        if clock is None:
            idx, lamport, cause = -1, 0, ""
        else:
            idx, lamport, cause = clock.observe()
        self._events.append(TraceEvent(
            self._seq, t, node, name, tuple(sorted(fields.items())),
            idx, lamport, cause,
        ))
        self._seq += 1

    def adopt(self, events: Iterable[TraceEvent]) -> None:
        """Append events recorded elsewhere (worker shards, merged), in order.

        ``seq`` is renumbered to continue this stream; per-node ``idx`` and
        the ``cause`` references built on it are left alone.
        """
        for event in events:
            self._events.append(event._replace(seq=self._seq))
            self._seq += 1

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def iter_events(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events_named(self, name: str) -> list[TraceEvent]:
        return [event for event in self._events if event.name == name]

    def clear(self) -> None:
        self._events.clear()
