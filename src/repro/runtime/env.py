"""The simulation :class:`~repro.bft.env.Env`: CPU-charged sends, kernel timers.

Outbound messages pass through the node's sequential protocol pipeline
(:class:`~repro.sim.resources.CpuAccount`) before reaching the network —
signing and serialization take CPU time, and a node that emits faster than
its pipeline drains builds a backlog.  This is the mechanism by which the
overloaded baseline's latency explodes at 32 ms bus cycles (Fig. 6) without
any scripted slowdown.

All emission semantics (canonical recipient ordering, self-exclusion,
counters, fire-once timers) live in :class:`~repro.runtime.base.BaseEnv`;
this adapter only supplies the physical half: charge the CPU pipeline one
``send_cost`` per emission (signing once, serializing once per copy — the
same accounting whether the emission is a unicast, a ``send_many`` fan-out,
or a broadcast), then put each copy on the simulated wire in order.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.causal import CausalContext
from repro.runtime.base import BaseEnv, EnvTimer
from repro.runtime.costs import send_cost, wire_size
from repro.sim.kernel import Kernel, Timer
from repro.sim.network import Network
from repro.sim.resources import CostModel, CpuAccount


class SimEnv(BaseEnv):
    """Env adapter for one simulated node."""

    def __init__(
        self,
        node_id: str,
        kernel: Kernel,
        network: Network,
        cpu: CpuAccount,
        model: CostModel,
    ) -> None:
        super().__init__(node_id)
        self._kernel = kernel
        self._network = network
        self._cpu = cpu
        self._model = model

    @property
    def cpu(self) -> CpuAccount:
        return self._cpu

    def now(self) -> float:
        return self._kernel.now

    # -- transport hooks -----------------------------------------------------

    def _peer_ids(self) -> Iterable[str]:
        return self._network.endpoints()

    def _transport_emit(
        self, dsts: tuple[str, ...], message: Any, ctx: CausalContext
    ) -> None:
        size = wire_size(message)
        cost = send_cost(message, self._model, copies=len(dsts))
        self._cpu.submit(cost, self._put_on_wire, dsts, message, size, ctx)

    def _put_on_wire(
        self, dsts: tuple[str, ...], message: Any, size: int, ctx: CausalContext
    ) -> None:
        # ctx rides the delivery envelope as an argument of the event — the
        # in-process transport never serializes it.
        network = self._network
        src = self._node_id
        for dst in dsts:
            if not network.send(src, dst, message, size, ctx):
                self._note_drop()

    def _transport_schedule(self, delay: float, timer: EnvTimer) -> Timer:
        return self._kernel.schedule(delay, timer.fire)

    def _transport_cancel(self, handle: Timer) -> None:
        handle.cancel()
