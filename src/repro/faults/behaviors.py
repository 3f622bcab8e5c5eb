"""Concrete Byzantine behaviours evaluated in the paper.

Fig. 9 evaluates the two worst-case attacks against the communication
layer:

* a faulty backup **fabricating requests** for a fraction of bus cycles —
  data that never appeared on the bus, broadcast straight to the group;
* a faulty primary **delaying preprepares** just below the hard timeout,
  stalling ordering until soft timeouts fire and backups forward requests.

Additional behaviours cover the fault taxonomy of §III-C: proposing
duplicates (detected at DECIDE, triggering a view change) and false
suspicion (harmless below f+1 votes — exercised in tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.bft.replica import PbftReplica
from repro.bus.frames import BusCycleData
from repro.core.layer import ZugChainLayer
from repro.core.messages import ZugBroadcast
from repro.core.node import ZugChainNode
from repro.wire.messages import Request, SignedRequest


@dataclass(frozen=True)
class ByzantineSpec:
    """Per-node fault configuration for scenario builders."""

    fabricate_per_cycle: float = 0.0     # probability of injecting a fabricated request
    preprepare_delay_s: float = 0.0      # primary-side proposal delay
    propose_duplicates: bool = False     # primary re-proposes logged requests
    crash_at_s: float | None = None      # fail-stop at a point in time

    @property
    def is_byzantine(self) -> bool:
        return (
            self.fabricate_per_cycle > 0
            or self.preprepare_delay_s > 0
            or self.propose_duplicates
        )

    @property
    def is_faulty(self) -> bool:
        """Byzantine *or* crash-faulty — the set the oracle must excuse.

        ``is_byzantine`` deliberately excludes fail-stop crashes (a crashed
        node sends nothing forgeable), but for ``faulty_node_ids()`` and the
        oracle's ``--faulty`` accounting a crash-only node is just as exempt
        from liveness expectations, so both kinds funnel through here.
        """
        return self.is_byzantine or self.crash_at_s is not None


class FabricatingNode(ZugChainNode):
    """A backup that injects fabricated requests for a fraction of bus cycles.

    The fabricated data is signed by the faulty node (it cannot forge other
    identities) and broadcast directly, skipping the soft timeout — the most
    aggressive load profile the layer's rate limiting must absorb.
    """

    def __init__(self, *args, fabricate_per_cycle: float, rng: random.Random, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fabricate_per_cycle = fabricate_per_cycle
        self._rng = rng
        self.fabricated = 0

    def on_bus_cycle(self, cycle: BusCycleData) -> None:
        super().on_bus_cycle(cycle)
        if self._rng.random() < self._fabricate_per_cycle:
            self._inject_fabricated(cycle)

    def _inject_fabricated(self, cycle: BusCycleData) -> None:
        self.fabricated += 1
        payload = self._rng.randbytes(max(32, cycle.data_size()))
        fabricated = Request(
            payload=payload,
            bus_cycle=cycle.cycle_no,
            recv_timestamp_us=int(self.env.now() * 1e6),
            source_link="fabricated",
        )
        signed = SignedRequest.create(fabricated, self.id, self.replica.keypair)
        self.env.broadcast(ZugBroadcast(request=signed))


class DelayingPrimaryReplica(PbftReplica):
    """A primary that delays its preprepares by a fixed amount.

    The paper's setting delays by 250 ms — exactly the soft timeout, so the
    delay "trigger[s] soft but not hard timeouts ... proposing it before a
    view change is triggered" (§V-B).
    """

    def __init__(self, *args, preprepare_delay_s: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._preprepare_delay_s = preprepare_delay_s
        self.delayed_proposals = 0

    def _broadcast_preprepare(self, preprepare) -> None:
        if self._preprepare_delay_s > 0 and self.is_primary:
            self.delayed_proposals += 1
            self.env.set_timer(
                self._preprepare_delay_s,
                lambda: self.env.broadcast(preprepare),
            )
        else:
            super()._broadcast_preprepare(preprepare)


class DuplicateProposingLayer(ZugChainLayer):
    """A faulty primary's layer that skips duplicate filtering when proposing.

    Correct replicas detect the duplicate at DECIDE (Alg. 1 ln. 17) and
    suspect the primary.
    """

    def receive(self, request: Request) -> None:
        if self.is_primary:
            # Propose unconditionally — no inLog check, no queue dedup.
            signed = SignedRequest.create(request, self.id, self.keypair)
            self.stats.proposed += 1
            self._propose(signed)
            return
        super().receive(request)


def make_zugchain_node(spec: ByzantineSpec, rng: random.Random, **node_kwargs) -> ZugChainNode:
    """Build a (possibly Byzantine) ZugChain node per ``spec``.

    Composition order: a delaying primary is the node's ``replica_cls``
    (PBFT, whatever backend was asked for: ``ScenarioConfig`` rejects the
    combination); a duplicate-proposing primary is its ``layer_cls``; a
    fabricating node is a node subclass.  Each is in place when the node is
    built, so a node rebuilt over its store replays into the parts that run.
    Specs combining all three are possible but not used by the paper's
    experiments.
    """
    if spec.preprepare_delay_s > 0:
        node_kwargs["replica_cls"] = partial(
            DelayingPrimaryReplica, preprepare_delay_s=spec.preprepare_delay_s)
    if spec.propose_duplicates:
        node_kwargs["layer_cls"] = DuplicateProposingLayer
    if spec.fabricate_per_cycle > 0:
        return FabricatingNode(
            fabricate_per_cycle=spec.fabricate_per_cycle, rng=rng, **node_kwargs
        )
    return ZugChainNode(**node_kwargs)
