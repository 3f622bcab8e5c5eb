"""Byte-accurate network model for the consensus Ethernet and the LTE uplink.

Each node has one egress interface per network (the testbed's M-COMs use a
100 Mbit/s Ethernet for consensus; the export path is an 8.5 Mbit/s LTE
link).  A message occupies its sender's egress for ``size * 8 / bandwidth``
seconds (FIFO serialization — concurrent sends queue), then propagates for
``latency (+ jitter)``.  This queueing is what lets an overloaded baseline's
network behaviour emerge rather than being scripted.

The model also supports partitions, crashed nodes, and probabilistic loss
for fault-injection tests.  Per-node byte counters feed the network-
utilization results of Fig. 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.kernel import Kernel
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class LinkSpec:
    """Physical characteristics of a network link."""

    latency_s: float = 0.2e-3
    jitter_s: float = 0.05e-3
    bandwidth_bps: float = 100e6
    loss_prob: float = 0.0

    # Common presets used by scenarios.
    @staticmethod
    def train_ethernet() -> "LinkSpec":
        """The testbed's 100 Mbit/s on-train Ethernet."""
        return LinkSpec(latency_s=0.2e-3, jitter_s=0.05e-3, bandwidth_bps=100e6)

    @staticmethod
    def lte_uplink() -> "LinkSpec":
        """LTE to the data center: ~8.5 Mbit/s, tens of ms RTT (§V-B)."""
        return LinkSpec(latency_s=35e-3, jitter_s=8e-3, bandwidth_bps=8.5e6)


@dataclass
class NetworkStats:
    """Counters per node, reset-able for measurement windows."""

    bytes_sent: dict[str, int] = field(default_factory=dict)
    bytes_received: dict[str, int] = field(default_factory=dict)
    messages_sent: dict[str, int] = field(default_factory=dict)
    messages_dropped: int = 0

    def record_send(self, node: str, nbytes: int) -> None:
        self.bytes_sent[node] = self.bytes_sent.get(node, 0) + nbytes
        self.messages_sent[node] = self.messages_sent.get(node, 0) + 1

    def record_receive(self, node: str, nbytes: int) -> None:
        self.bytes_received[node] = self.bytes_received.get(node, 0) + nbytes

    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent.values())


class Network:
    """Message-passing fabric between named endpoints."""

    def __init__(
        self,
        kernel: Kernel,
        rng: random.Random,
        default_link: LinkSpec | None = None,
        name: str = "net",
    ) -> None:
        self._kernel = kernel
        self._rng = rng
        self.name = name
        self._default_link = default_link or LinkSpec.train_ethernet()
        self._links: dict[tuple[str, str], LinkSpec] = {}
        # Chaos-layer overrides: consulted before the permanent topology so
        # fault schedules can degrade links for a window and then restore the
        # original characteristics exactly.  Keys may use "*" as a wildcard
        # for either endpoint; the most specific match wins.
        self._link_overrides: dict[tuple[str, str], LinkSpec] = {}
        self._endpoints: dict[str, Callable[[str, Any, int], None]] = {}
        self._egress_busy_until: dict[str, float] = {}
        self._partitioned: set[frozenset[str]] = set()
        self._crashed: set[str] = set()
        self.stats = NetworkStats()
        self._window_start = 0.0
        self._window_bytes: dict[str, int] = {}
        #: Causal context of the delivery currently being dispatched, if
        #: any — set only for the duration of the endpoint callback so
        #: receivers (``NodeHost``) can pick it up synchronously.
        self.inbound_context: Any = None

    # -- topology -----------------------------------------------------------

    def register(self, node_id: str, receive: Callable[[str, Any, int], None]) -> None:
        """Attach an endpoint; ``receive(src, payload, size)`` is its inbox."""
        if node_id in self._endpoints:
            raise ConfigError(f"endpoint {node_id!r} already registered")
        self._endpoints[node_id] = receive
        self._egress_busy_until[node_id] = 0.0

    def set_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Override the link characteristics for a directed pair."""
        self._links[(src, dst)] = spec

    def set_link_override(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Temporarily supersede the link characteristics for a pair.

        Either endpoint may be ``"*"`` to degrade a whole node's ingress or
        egress (or, with both wild, the entire fabric).  Overrides shadow
        :meth:`set_link` until :meth:`clear_link_override` removes them,
        which restores the permanent topology untouched.
        """
        self._link_overrides[(src, dst)] = spec

    def clear_link_override(self, src: str, dst: str) -> None:
        self._link_overrides.pop((src, dst), None)

    def link(self, src: str, dst: str) -> LinkSpec:
        if self._link_overrides:
            for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
                spec = self._link_overrides.get(key)
                if spec is not None:
                    return spec
        if self._links:
            return self._links.get((src, dst), self._default_link)
        return self._default_link

    @property
    def default_link(self) -> LinkSpec:
        """The fabric-wide baseline link (fault schedules derive from it)."""
        return self._default_link

    def endpoints(self) -> list[str]:
        """Registered endpoint ids, in registration order.

        Not sorted: canonical recipient order is the emitter's job
        (:meth:`repro.runtime.base.BaseEnv._emit`, :meth:`broadcast` here).
        """
        return list(self._endpoints)

    # -- fault control ------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Block traffic in both directions between ``a`` and ``b``."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def crash(self, node_id: str) -> None:
        """Silently drop all traffic to and from ``node_id``."""
        self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        return node_id in self._crashed

    # -- transmission -------------------------------------------------------

    def send(
        self, src: str, dst: str, payload: Any, size_bytes: int, ctx: Any = None
    ) -> bool:
        """Transmit ``payload`` of ``size_bytes`` from ``src`` to ``dst``.

        Returns ``True`` if the message was put on the wire.  The payload
        object itself is delivered by reference (the wire layer has already
        made sizes explicit; re-encoding on every simulated hop would only
        burn host CPU).  ``ctx`` is an opaque causal context carried in
        the delivery envelope and exposed via :attr:`inbound_context`
        while the destination endpoint callback runs.
        """
        receive = self._endpoints.get(dst)
        if receive is None:
            raise ConfigError(f"unknown destination {dst!r}")
        crashed = self._crashed
        if crashed and (src in crashed or dst in crashed):
            self.stats.messages_dropped += 1
            return False
        # An empty partition set (the usual case) is not worth a frozenset.
        partitioned = self._partitioned
        if partitioned and frozenset((src, dst)) in partitioned:
            self.stats.messages_dropped += 1
            return False

        spec = self.link(src, dst)
        if spec.loss_prob > 0 and self._rng.random() < spec.loss_prob:
            self.stats.messages_dropped += 1
            return False

        self.stats.record_send(src, size_bytes)
        self._window_bytes[src] = self._window_bytes.get(src, 0) + size_bytes

        transmit = size_bytes * 8.0 / spec.bandwidth_bps
        start = self._kernel.now
        busy_until = self._egress_busy_until.get(src, 0.0)
        if start < busy_until:
            start = busy_until
        self._egress_busy_until[src] = start + transmit
        # uniform(0, j) is 0.0 + (j - 0.0) * random(): the same single draw
        # and the same float, without the Python-level call.
        jitter = spec.jitter_s * self._rng.random() if spec.jitter_s > 0 else 0.0
        arrival = start + transmit + spec.latency_s + jitter

        self._kernel.schedule_at(
            arrival, self._deliver, receive, src, dst, payload, size_bytes, ctx)
        return True

    def _deliver(
        self, receive: Callable[[str, Any, int], None],
        src: str, dst: str, payload: Any, size_bytes: int, ctx: Any,
    ) -> None:
        """Arrival of one copy: the fault sets are read again, as they are now."""
        crashed = self._crashed
        partitioned = self._partitioned
        if (crashed and dst in crashed) or (
                partitioned and frozenset((src, dst)) in partitioned):
            self.stats.messages_dropped += 1
            return
        self.stats.record_receive(dst, size_bytes)
        self.inbound_context = ctx
        try:
            receive(src, payload, size_bytes)
        finally:
            self.inbound_context = None

    def broadcast(self, src: str, payload: Any, size_bytes: int, include_self: bool = False) -> int:
        """Send to every registered endpoint (optionally including ``src``).

        Each copy serializes separately on the sender's egress, as unicast
        fan-out over Ethernet does.  Returns the number of copies sent.
        """
        sent = 0
        for dst in sorted(self._endpoints):
            if dst == src and not include_self:
                continue
            if self.send(src, dst, payload, size_bytes):
                sent += 1
        return sent

    # -- measurement --------------------------------------------------------

    def utilization(self, node_id: str, elapsed: float | None = None) -> float:
        """Fraction of ``node_id``'s egress bandwidth used since t=0."""
        if elapsed is None:
            elapsed = self._kernel.now
        if elapsed <= 0:
            return 0.0
        spec = self.link(node_id, node_id)
        sent = self.stats.bytes_sent.get(node_id, 0)
        return sent * 8.0 / (spec.bandwidth_bps * elapsed)

    def window_utilization(self, node_id: str) -> float:
        """Egress utilization since the last :meth:`reset_window`."""
        elapsed = self._kernel.now - self._window_start
        if elapsed <= 0:
            return 0.0
        spec = self.link(node_id, node_id)
        sent = self._window_bytes.get(node_id, 0)
        return sent * 8.0 / (spec.bandwidth_bps * elapsed)

    def reset_window(self) -> None:
        self._window_start = self._kernel.now
        self._window_bytes = {}
