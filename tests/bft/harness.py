"""Synchronous test harness for driving BFT replicas without the simulator.

Creates ``n`` replicas of one backend (``replica_cls``) on
:class:`RecordingEnv`s and pumps messages between them until quiescence.  A
delivery filter lets tests drop or reroute messages (partitions, censoring
primaries).  Timers are fired manually.
"""

from __future__ import annotations

import inspect
from types import ModuleType
from typing import Callable

from repro.bft import BftConfig, NewView, PbftReplica, ReplicaCore, ViewChange
from repro.bft.env import RecordingEnv
from repro.crypto import HmacScheme, KeyStore
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()


def contract_tests(*modules: ModuleType) -> dict[str, Callable]:
    """The tests of ``modules`` that leave the backend to ``make_cluster``."""
    return {
        name: test for module in modules for name, test in vars(module).items()
        if name.startswith("test_") and "make_cluster" in inspect.signature(test).parameters
    }


class BftCluster:
    def __init__(self, n: int = 4, replica_cls: type[ReplicaCore] = PbftReplica,
                 **config_kwargs) -> None:
        self.ids = [f"node-{i}" for i in range(n)]
        self.config = BftConfig(replica_ids=tuple(self.ids), **config_kwargs)
        self.keystore = KeyStore(scheme=SCHEME)
        self.keypairs = {}
        for node_id in self.ids:
            pair = SCHEME.derive_keypair(node_id.encode())
            self.keypairs[node_id] = pair
            self.keystore.register(node_id, pair.public)

        self.envs: dict[str, RecordingEnv] = {}
        self.replicas: dict[str, ReplicaCore] = {}
        self.decided: dict[str, list[tuple[int, SignedRequest]]] = {i: [] for i in self.ids}
        self.new_primaries: dict[str, list[str]] = {i: [] for i in self.ids}
        self.stable_checkpoints: dict[str, list] = {i: [] for i in self.ids}
        # (src, dst, message) -> bool; False drops the message.
        self.delivery_filter: Callable[[str, str, object], bool] = lambda s, d, m: True

        for node_id in self.ids:
            env = RecordingEnv(node_id=node_id)
            self.envs[node_id] = env
            self.replicas[node_id] = replica_cls(
                env=env,
                config=self.config,
                keypair=self.keypairs[node_id],
                keystore=self.keystore,
                on_decide=self._decide_recorder(node_id),
                on_new_primary=self._primary_recorder(node_id),
                on_stable_checkpoint=self._checkpoint_recorder(node_id),
            )

    def _decide_recorder(self, node_id):
        def record(request, seq):
            self.decided[node_id].append((seq, request))
        return record

    def _primary_recorder(self, node_id):
        def record(pid):
            self.new_primaries[node_id].append(pid)
        return record

    def _checkpoint_recorder(self, node_id):
        def record(cert):
            self.stable_checkpoints[node_id].append(cert)
        return record

    # -- driving -----------------------------------------------------------------

    def signed_request(self, cycle: int, node_id: str = "node-0", payload: bytes = b"signals"):
        request = Request(payload=payload, bus_cycle=cycle, recv_timestamp_us=cycle * 64000)
        return SignedRequest.create(request, node_id, self.keypairs[node_id])

    def pump(self, max_rounds: int = 100) -> int:
        """Deliver queued messages until no replica emits anything new."""
        rounds = 0
        for _ in range(max_rounds):
            deliveries = []
            for src, env in self.envs.items():
                for dst, message in env.sent:
                    deliveries.append((src, dst, message))
                for message in env.broadcasts:
                    for dst in self.ids:
                        if dst != src:
                            deliveries.append((src, dst, message))
                env.clear()
            if not deliveries:
                return rounds
            rounds += 1
            for src, dst, message in deliveries:
                if self.delivery_filter(src, dst, message):
                    self.replicas[dst].on_message(src, message)
        return rounds

    def all_decided_consistent(self) -> bool:
        """Every replica decided the same (seq -> digest) mapping prefix."""
        maps = []
        for node_id in self.ids:
            maps.append({seq: req.digest for seq, req in self.decided[node_id]})
        common = set.intersection(*(set(m) for m in maps)) if maps else set()
        return all(
            len({m[seq] for m in maps}) == 1 for seq in common
        )


def laggard_misses_a_view_change(cluster: BftCluster, laggard: str = "node-3"):
    """Seq 1 executed everywhere but at ``laggard``, then a view change without it.

    Nothing about seq 1 reaches the laggard, seq 2 stops short of its last
    phase everywhere (so the new view has something above seq 1 to
    re-propose), and the laggard's ViewChange is lost, so the new primary's
    quorum is exactly the replicas that executed seq 1.  Returns the two
    requests and the NewView that was broadcast.
    """
    new_views = []

    def view_0(src, dst, message):
        seq = getattr(message, "seq", None)
        last_phase = type(message).__name__ in ("Commit", "CommitCert")
        return not (seq == 1 and dst == laggard) and not (seq == 2 and last_phase)

    def view_change(src, dst, message):
        if isinstance(message, NewView):
            new_views.append(message)
        return not (isinstance(message, ViewChange) and src == laggard)

    cluster.delivery_filter = view_0
    requests = [cluster.signed_request(cycle) for cycle in (1, 2)]
    for request in requests:
        cluster.replicas[cluster.ids[0]].propose(request)
    cluster.pump()
    assert cluster.decided[laggard] == []
    cluster.delivery_filter = view_change
    for node_id in cluster.ids[1:3]:
        cluster.replicas[node_id].suspect()
    cluster.pump()
    return requests[0], requests[1], new_views[0]
