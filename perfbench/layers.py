"""Where the layers' boundaries are, and the per-layer metrics read off them.

Layers are the repo's packages.  :func:`boundary_points` lists the public
entry points of each; the traced repeat wraps exactly these.
``util.varint`` runs inside the wire calls and is counted as ``wire``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.metrics import LAYERS
from perfbench.spans import Aggregate, Point, aggregate


@dataclass
class Observations:
    """Counts taken at the boundaries during the traced repeat."""

    encoded_bytes: int = 0
    redundant_votes: int = 0
    emitted: list[Any] = field(default_factory=list)   # message per emission call

    def clear(self) -> None:
        self.encoded_bytes = 0
        self.redundant_votes = 0
        self.emitted.clear()


def boundary_points(seen: Observations) -> list[Point]:
    import repro.obs.check
    import repro.scenarios.cluster
    import repro.wire.tags  # noqa: F401  (fills the registry)
    from repro.bft.replica import PbftReplica
    from repro.bus.frames import BusCycleData
    from repro.bus.generator import TrainDynamicsGenerator
    from repro.bus.reception import BusReceiver
    from repro.chain.blockchain import Blockchain
    from repro.chain.store import MemoryBlockStore
    from repro.chaos import ChaosInjector
    from repro.core.blockbuilder import BlockBuilder
    from repro.core.layer import ZugChainLayer
    from repro.core.statesync import StateSync
    from repro.crypto.keys import KeyPair, KeyStore
    from repro.crypto.merkle import MerkleTree
    from repro.export.datacenter import DataCenter
    from repro.export.replica_side import ExportHandler
    from repro.export.scenario import ExportScenario
    from repro.obs.trace import RecordingTracer
    from repro.runtime.base import BaseEnv
    from repro.scenarios.cluster import SimulatedCluster
    from repro.sim.kernel import Kernel
    from repro.sim.network import Network
    from repro.sim.resources import CpuAccount
    from repro.wire.registry import registered_types

    def count_encoded(args, result) -> None:
        seen.encoded_bytes += len(result)

    def count_redundant(args, result) -> None:
        seen.redundant_votes += bool(result)

    def keep_message(args, result) -> None:
        seen.emitted.append(args[-1])  # send(dst, m), send_many(dsts, m), broadcast(m)

    def first_arg_digest(args) -> bytes:
        return args[1].digest      # args[0] is self

    def methods(owner, layer, *names, **extra) -> list[Point]:
        return [Point(owner, name, layer, **extra) for name in names]

    points = (
        methods(Kernel, "sim", "step", "schedule_at")
        + methods(Network, "sim", "send")
        + methods(CpuAccount, "sim", "submit")
        + methods(BaseEnv, "runtime", "send", "send_many", "broadcast", observe=keep_message)
        + methods(BaseEnv, "runtime", "set_timer")
        + methods(TrainDynamicsGenerator, "bus", "frames_for_cycle")
        + methods(BusReceiver, "bus", "on_cycle")
        + methods(BusCycleData, "bus", "encode", "wire_size")
        + methods(PbftReplica, "bft", "propose", digest_of=first_arg_digest)
        + methods(PbftReplica, "bft", "on_message", "record_checkpoint")
        + methods(PbftReplica, "bft", "vote_is_redundant", observe=count_redundant)
        + methods(ZugChainLayer, "core", "receive", "on_decide", digest_of=first_arg_digest)
        + methods(ZugChainLayer, "core", "on_broadcast", "on_forward")
        + methods(BlockBuilder, "core", "add", digest_of=first_arg_digest)
        + methods(StateSync, "core", "handle_request", "handle_reply", "sync_from_certificate")
        + methods(KeyPair, "crypto", "sign")
        + methods(KeyStore, "crypto", "verify")
        + methods(MerkleTree, "crypto", "__init__")
        + methods(Blockchain, "chain", "append", "prune_below", "verify")
        + methods(MemoryBlockStore, "chain", "write", "load_all")
        + methods(ExportScenario, "export", "run_export")
        + methods(DataCenter, "export", "start_export", "handle_message")
        + methods(ExportHandler, "export", "handle_message")
        + methods(RecordingTracer, "obs", "emit")
        + methods(repro.obs.check, "obs", "check_trace")
        + methods(repro.scenarios.cluster, "obs", "check_trace")  # imported by name there
        + methods(ChaosInjector, "chaos", "install")
        + methods(SimulatedCluster, "scenarios", "run", "recover_node")
    )
    for cls in registered_types().values():
        points += methods(cls, "wire", "encode", observe=count_encoded)
        points += methods(cls, "wire", "encoded_size", "decode")
    return points


def replay_wire(messages: list[Any]) -> dict[str, float]:
    """Time the real-bytes path of the captured emissions.

    The simulator delivers message objects by reference; the TCP and
    multiprocess runtimes put these same messages through
    ``encode_message`` and ``decode_message``.
    """
    from repro.wire.registry import decode_message, encode_message

    if not messages:
        return {"wire.encode_us_per_msg": 0.0, "wire.decode_us_per_msg": 0.0,
                "wire.bytes_per_msg": 0.0}
    start = time.perf_counter()
    frames = [encode_message(message) for message in messages]
    encoded = time.perf_counter()
    decoded = [decode_message(frame)[0] for frame in frames]
    end = time.perf_counter()
    if decoded != messages:
        raise AssertionError("a captured emission did not survive encode -> decode")
    return {
        "wire.encode_us_per_msg": (encoded - start) / len(messages) * 1e6,
        "wire.decode_us_per_msg": (end - encoded) / len(messages) * 1e6,
        "wire.bytes_per_msg": sum(map(len, frames)) / len(messages),
    }


def layer_metrics(spans: list[list], seen: Observations, traced_wall_s: float,
                  requests: int, counters: dict[str, int],
                  wire_bytes_per_req: float) -> dict[str, float]:
    """Every per-layer metric that needs the spans."""
    table = aggregate(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [entry for (row_layer, _), entry in table.items() if row_layer == layer]
        self_s = sum(entry.self_s for entry in rows)
        out[f"{layer}.calls"] = sum(entry.calls for entry in rows)
        out[f"{layer}.self_ms"] = self_s * 1e3
        out[f"{layer}.share_pct"] = 100.0 * self_s / traced_wall_s

    def entry(layer: str, name: str) -> Aggregate:
        return table.get((layer, name), Aggregate())

    def mean_s(layer: str, name: str) -> float:
        found = entry(layer, name)
        return found.total_s / found.calls if found.calls else 0.0

    encode_calls = sum(found.calls for (layer, name), found in table.items()
                       if layer == "wire" and name.endswith(".encode"))
    emissions = sum(entry("runtime", f"BaseEnv.{name}").calls
                    for name in ("send", "send_many", "broadcast"))
    votes = entry("bft", "PbftReplica.vote_is_redundant").calls
    cycles = entry("bus", "TrainDynamicsGenerator.frames_for_cycle").calls
    wire_bytes = wire_bytes_per_req * requests
    out.update({
        "wire.encode_calls_per_req": encode_calls / requests,
        "wire.reencode_ratio": seen.encoded_bytes / wire_bytes if wire_bytes else 0.0,
        "crypto.sign_calls_per_req": entry("crypto", "KeyPair.sign").calls / requests,
        "crypto.verify_calls_per_req": entry("crypto", "KeyStore.verify").calls / requests,
        "crypto.sign_us": mean_s("crypto", "KeyPair.sign") * 1e6,
        "crypto.verify_us": mean_s("crypto", "KeyStore.verify") * 1e6,
        "runtime.fanout_mean": (counters["env.messages_emitted"] / emissions
                                if emissions else 0.0),
        "bus.parse_us_per_cycle": (entry("bus", "BusReceiver.on_cycle").total_s / cycles * 1e6
                                   if cycles else 0.0),
        "bus.gen_us_per_cycle": mean_s("bus", "TrainDynamicsGenerator.frames_for_cycle") * 1e6,
        "bft.on_message_us": mean_s("bft", "PbftReplica.on_message") * 1e6,
        "bft.redundant_vote_pct": 100.0 * seen.redundant_votes / votes if votes else 0.0,
        "chain.store_write_us": mean_s("chain", "MemoryBlockStore.write") * 1e6,
        "chain.store_load_us": mean_s("chain", "MemoryBlockStore.load_all") * 1e6,
        "chain.append_us": mean_s("chain", "Blockchain.append") * 1e6,
        "obs.emit_us": mean_s("obs", "RecordingTracer.emit") * 1e6,
        "obs.check_ms": mean_s("obs", "check_trace") * 1e3,
        "scenarios.recover_ms": mean_s("scenarios", "SimulatedCluster.recover_node") * 1e3,
    })
    out.update(replay_wire(seen.emitted))
    return out
