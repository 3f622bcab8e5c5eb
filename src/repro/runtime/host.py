"""NodeHost: attaches a protocol node to the network and the bus.

Inbound messages are charged their verification/deserialization cost on the
node's protocol pipeline before the handler runs, preserving arrival order
per node.  Bus cycles charge parsing cost as background work (the bus
front end runs on its own core and does not delay ordering).
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.bus.frames import BusCycleData
from repro.bus.master import MvbMaster
from repro.bus.faults import ReceptionFaultConfig
from repro.runtime.costs import bus_parse_cost, discard_cost, recv_cost
from repro.sim.network import Network
from repro.sim.resources import CostModel, CpuAccount


class HostedNode(Protocol):
    """What the host needs from a node (ZugChainNode and BaselineNode both fit)."""

    id: str

    def handle_message(self, src: str, message: Any) -> None: ...

    def on_bus_cycle(self, cycle: BusCycleData) -> None: ...


class NodeHost:
    """Runtime binding of one node: network endpoint + bus subscription."""

    def __init__(
        self,
        node: HostedNode,
        network: Network,
        cpu: CpuAccount,
        model: CostModel,
    ) -> None:
        self.node = node
        self._network = network
        self._cpu = cpu
        self._model = model
        self.messages_received = 0
        self.inbox_bytes = 0  # messages received but not yet processed
        #: Incarnation number.  Deferred work (a ``_process`` on the CPU
        #: pipeline) carries the epoch of its enqueue time and is dropped if
        #: the node crashed in between — a dead incarnation's half-processed
        #: inbox must not leak into its successor.
        self.epoch = 0
        network.register(node.id, self._deliver)

    @property
    def node(self) -> HostedNode:
        return self._node

    @node.setter
    def node(self, node: HostedNode) -> None:
        """Bind a node incarnation (construction, and again on crash recovery).

        What a delivery needs from the node is resolved here, once per
        incarnation rather than per message: its replica, if it has one, for
        the lazy-verification lookup, and its env's ``run_inbound``.
        """
        self._node = node
        self._replica = getattr(node, "replica", None)
        self._run_inbound = getattr(getattr(node, "env", None), "run_inbound", None)

    def advance_epoch(self) -> None:
        """Invalidate all deferred work enqueued for the current incarnation."""
        self.epoch += 1
        self.inbox_bytes = 0

    def _deliver(self, src: str, message: Any, size: int) -> None:
        self.messages_received += 1
        # The network exposes the delivery's causal context only for the
        # duration of this callback; capture it for the deferred handler.
        ctx = self._network.inbound_context
        # Lazy verification: votes that can no longer change replica state
        # are discarded after a table lookup, skipping signature checks.
        replica = self._replica
        if replica is not None and replica.vote_is_redundant(message):
            cost = discard_cost(size, self._model)
        else:
            cost = recv_cost(message, self._model)
        self.inbox_bytes += size
        self._cpu.submit(cost, self._process, self.epoch, size, ctx, src, message)

    def _process(self, epoch: int, size: int, ctx: Any, src: str, message: Any) -> None:
        if self.epoch != epoch:
            return  # the node crashed after delivery; drop silently
        self.inbox_bytes -= size
        if self._run_inbound is not None:
            self._run_inbound(ctx, self._node.handle_message, src, message)
        else:
            self._node.handle_message(src, message)

    def attach_bus(self, master: MvbMaster, faults: ReceptionFaultConfig | None = None) -> None:
        master.attach(self.node.id, self._on_bus_cycle, faults)

    def _on_bus_cycle(self, cycle: BusCycleData) -> None:
        # Parsing runs on the bus-facing core: charged, but off the ordering
        # pipeline, so reception never delays in-flight consensus.
        self._cpu.charge_background(bus_parse_cost(cycle.wire_size(), self._model))
        self.node.on_bus_cycle(cycle)
