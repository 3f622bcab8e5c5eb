"""repro.obs — deterministic observability: tracing, metrics, spans, sinks.

Three parts (see DESIGN.md "Observability layer"):

* :mod:`repro.obs.trace` — structured tracing at named protocol points,
  stamped with virtual time + node id + a monotonic sequence; off by
  default via :data:`NULL_TRACER`.
* :mod:`repro.obs.metrics` — counters folded from the protocol's stats
  dataclasses into per-node registries, and a cluster-level
  ``aggregate()`` that folds in every runtime Env's counters (sends,
  drops, decode errors, oversize frames) under the same keys everywhere.
* :mod:`repro.obs.spans` / :mod:`repro.obs.sinks` — span pairing into
  per-request phase latencies, and a byte-stable JSONL trace format read
  back by ``python -m repro.obs summary``.
"""

from repro.obs.causal import (
    LIFECYCLE,
    CausalClock,
    CausalContext,
    CausalDag,
    CausalEdge,
    build_dag,
    event_id,
    lifecycle_chains,
    lifecycle_shape,
    merge_shards,
)
from repro.obs.check import (
    DEFAULT_TAIL_SLACK_S,
    OracleFinding,
    OracleReport,
    check_trace,
)
from repro.obs.metrics import (
    ClusterMetrics,
    Counter,
    MetricsRegistry,
    fold_env_counters,
)
from repro.obs.sinks import (
    JsonlTraceSink,
    NullSink,
    decode_event,
    encode_event,
    iter_trace,
    read_trace,
    write_trace,
)
from repro.obs.spans import (
    PHASES,
    PhaseStats,
    RequestSpan,
    SpanReport,
    ViewChangeStall,
    pair_request_spans,
    pair_view_changes,
)
from repro.obs.trace import (
    EVENT_TAXONOMY,
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "LIFECYCLE",
    "CausalClock",
    "CausalContext",
    "CausalDag",
    "CausalEdge",
    "build_dag",
    "event_id",
    "lifecycle_chains",
    "lifecycle_shape",
    "merge_shards",
    "DEFAULT_TAIL_SLACK_S",
    "OracleFinding",
    "OracleReport",
    "check_trace",
    "EVENT_TAXONOMY",
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "TraceEvent",
    "Tracer",
    "ClusterMetrics",
    "Counter",
    "MetricsRegistry",
    "fold_env_counters",
    "JsonlTraceSink",
    "NullSink",
    "decode_event",
    "encode_event",
    "iter_trace",
    "read_trace",
    "write_trace",
    "PHASES",
    "PhaseStats",
    "RequestSpan",
    "SpanReport",
    "ViewChangeStall",
    "pair_request_spans",
    "pair_view_changes",
]
