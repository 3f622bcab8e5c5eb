"""SimEnv and NodeHost behaviour tests: queuing, ordering, accounting."""

import random

import pytest

from repro.bft.messages import Prepare
from repro.crypto import HmacScheme
from repro.runtime import NodeHost, SimEnv, wire_size
from repro.sim import CostModel, CpuAccount, Kernel, LinkSpec, Network

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")


class StubNode:
    """Minimal hosted node: records handled messages in order."""

    def __init__(self, node_id="node-0"):
        self.id = node_id
        self.handled = []
        self.replica = None  # no lazy-verification hints

    def handle_message(self, src, message):
        self.handled.append((src, message))

    def on_bus_cycle(self, cycle):
        self.handled.append(("bus", cycle))


def make_stack(node_id="node-0"):
    kernel = Kernel()
    model = CostModel()
    network = Network(kernel, random.Random(1),
                      LinkSpec(latency_s=1e-4, jitter_s=0.0, bandwidth_bps=100e6))
    cpu = CpuAccount(kernel, model, name=node_id)
    node = StubNode(node_id)
    host = NodeHost(node, network, cpu, model)
    env = SimEnv(node_id, kernel, network, cpu, model)
    return kernel, network, cpu, node, host, env


def prepare_msg():
    return Prepare(view=0, seq=1, digest=b"\x11" * 32, replica_id="node-1").signed(PAIR)


def test_send_charges_pipeline_before_wire():
    kernel, network, cpu, node, host, env = make_stack()
    network.register("node-1", lambda *a: None)
    env.send("node-1", prepare_msg())
    assert cpu.pipeline_backlog > 0
    kernel.run()
    assert network.stats.bytes_sent["node-0"] == wire_size(prepare_msg())


def test_receive_order_preserved_per_node():
    kernel, network, cpu, node, host, env = make_stack()
    env2 = SimEnv("node-1", kernel, network, cpu, CostModel())
    network.register("node-1", lambda *a: None)
    for i in range(5):
        msg = Prepare(view=0, seq=i + 1, digest=b"\x11" * 32,
                      replica_id="node-1").signed(PAIR)
        network.send("node-1", "node-0", msg, 100)
    kernel.run()
    seqs = [m.seq for _, m in node.handled]
    assert seqs == [1, 2, 3, 4, 5]


def _run_until_delivered(kernel, host):
    """Fire events up to the network arrival; the CPU pipeline item stays queued."""
    while host.inbox_bytes == 0 and kernel.step():
        pass


def test_inbox_bytes_rises_and_falls():
    kernel, network, cpu, node, host, env = make_stack()
    network.register("node-1", lambda *a: None)
    network.send("node-1", "node-0", prepare_msg(), 150)
    _run_until_delivered(kernel, host)
    assert host.inbox_bytes == 150
    kernel.run()
    assert host.inbox_bytes == 0
    assert node.handled


def test_broadcast_serializes_once_per_copy():
    kernel, network, cpu, node, host, env = make_stack()
    for peer in ("node-1", "node-2", "node-3"):
        network.register(peer, lambda *a: None)
    env.broadcast(prepare_msg())
    kernel.run()
    assert network.stats.messages_sent["node-0"] == 3


def test_timer_from_env_is_cancellable():
    kernel, network, cpu, node, host, env = make_stack()
    fired = []
    timer = env.set_timer(1.0, lambda: fired.append(1))
    timer.cancel()
    kernel.run()
    assert fired == []


def test_now_tracks_kernel():
    kernel, network, cpu, node, host, env = make_stack()
    assert env.node_id == "node-0"
    # Exact virtual-time assertions are sound here: the kernel clock is set
    # from these literal schedule() values, not float arithmetic.
    assert env.now() == 0.0  # zuglint: disable=DET005
    kernel.schedule(2.0, lambda: None)
    kernel.run()
    assert env.now() == 2.0  # zuglint: disable=DET005


def test_node_crashed_between_delivery_and_completion_never_sees_the_message():
    kernel, network, cpu, node, host, env = make_stack()
    network.register("node-1", lambda *a: None)
    network.send("node-1", "node-0", prepare_msg(), 150)
    _run_until_delivered(kernel, host)
    assert host.inbox_bytes == 150 and host.messages_received == 1
    host.advance_epoch()  # what SimulatedCluster.crash_node does to the host
    assert host.inbox_bytes == 0
    # The successor's inbox is its own: a message of the new epoch goes through.
    network.send("node-1", "node-0", prepare_msg(), 90)
    kernel.run()
    assert [message.seq for _, message in node.handled] == [1]
    assert len(node.handled) == 1 and host.messages_received == 2
    assert host.inbox_bytes == 0 and cpu.queue_depth == 0


def test_destination_lost_between_send_and_arrival_is_counted_as_the_senders_copy_only():
    kernel, network, cpu, node, host, env = make_stack()
    network.register("node-1", lambda *a: None)
    env.send("node-1", prepare_msg())
    kernel.step()  # pipeline completion: the copy is on the wire
    assert network.stats.messages_sent["node-0"] == 1
    network.crash("node-1")
    kernel.run()
    # Dropped where it landed: the sender's env was told "sent", so this is
    # the network's drop, not the env's.
    assert network.stats.messages_dropped == 1 and env.counters.drops == 0


def test_a_copy_refused_at_the_wire_is_the_envs_drop():
    kernel, network, cpu, node, host, env = make_stack()
    for peer in ("node-1", "node-2"):
        network.register(peer, lambda *a: None)
    network.crash("node-2")
    env.send_many(("node-1", "node-2"), prepare_msg())
    kernel.run()
    assert network.stats.messages_sent["node-0"] == 1
    assert env.counters.drops == 1


def test_causal_context_rides_the_hop_from_emission_to_handler():
    kernel, network, cpu, node, host, env = make_stack()
    node.env = SimEnv("node-0", kernel, network, cpu, CostModel())
    host.node = node  # rebind, as on recovery: resolves the env's run_inbound
    seen = []
    node.handle_message = lambda src, message: seen.append((src, node.env.causal.inbound))
    sender_cpu = CpuAccount(kernel, CostModel(), name="node-1")
    sender = SimEnv("node-1", kernel, network, sender_cpu, CostModel())
    network.register("node-1", lambda *a: None)
    sender.send("node-0", prepare_msg())
    kernel.run()
    [(src, ctx)] = seen
    assert src == "node-1" and ctx is not None and ctx.origin == "node-1"
    assert node.env.causal.inbound is None and network.inbound_context is None


def test_a_hop_makes_no_function_of_its_own():
    # What a hop hands the kernel is a bound method and its arguments.  A
    # nested ``def`` or lambda in one of these shows up as a code object
    # among the function's constants — and is a closure per message again.
    import types

    from repro.sim.network import Network as Net

    for hop in (Net.send, NodeHost._deliver, SimEnv._transport_emit, CpuAccount.submit):
        nested = [const.co_name for const in hop.__code__.co_consts
                  if isinstance(const, types.CodeType)]
        assert not nested, f"{hop.__qualname__} defines {nested} per call"
