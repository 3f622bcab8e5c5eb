"""Network model tests: delivery, serialization queueing, faults, stats."""

import random

import pytest

from repro.sim import Kernel, LinkSpec, Network
from repro.util import ConfigError


def make_net(default_link=None, seed=1):
    kernel = Kernel()
    net = Network(kernel, random.Random(seed), default_link=default_link)
    return kernel, net


def attach_inbox(net, node_id):
    inbox = []
    net.register(node_id, lambda src, payload, size: inbox.append((src, payload, size)))
    return inbox


def test_basic_delivery():
    kernel, net = make_net(LinkSpec(latency_s=0.001, jitter_s=0.0, bandwidth_bps=100e6))
    inbox = attach_inbox(net, "b")
    attach_inbox(net, "a")
    assert net.send("a", "b", "hello", 1000)
    kernel.run()
    assert inbox == [("a", "hello", 1000)]


def test_delivery_time_includes_transmission_and_latency():
    spec = LinkSpec(latency_s=0.010, jitter_s=0.0, bandwidth_bps=1e6)
    kernel, net = make_net(spec)
    times = []
    net.register("b", lambda src, payload, size: times.append(kernel.now))
    net.register("a", lambda *args: None)
    net.send("a", "b", "x", 1250)  # 1250 B * 8 / 1e6 = 10 ms transmit
    kernel.run()
    assert times[0] == pytest.approx(0.010 + 0.010)


def test_egress_serialization_queues_messages():
    # Two back-to-back sends share the egress: second arrives one
    # transmission time later.
    spec = LinkSpec(latency_s=0.0, jitter_s=0.0, bandwidth_bps=1e6)
    kernel, net = make_net(spec)
    times = []
    net.register("b", lambda src, payload, size: times.append(kernel.now))
    net.register("a", lambda *args: None)
    net.send("a", "b", 1, 1250)
    net.send("a", "b", 2, 1250)
    kernel.run()
    assert times == [pytest.approx(0.010), pytest.approx(0.020)]


def test_broadcast_excludes_self_by_default():
    kernel, net = make_net(LinkSpec(latency_s=0.001, jitter_s=0.0, bandwidth_bps=100e6))
    boxes = {n: attach_inbox(net, n) for n in ("a", "b", "c")}
    sent = net.broadcast("a", "msg", 100)
    kernel.run()
    assert sent == 2
    assert boxes["a"] == []
    assert len(boxes["b"]) == 1 and len(boxes["c"]) == 1


def test_broadcast_include_self():
    kernel, net = make_net(LinkSpec(latency_s=0.001, jitter_s=0.0, bandwidth_bps=100e6))
    boxes = {n: attach_inbox(net, n) for n in ("a", "b")}
    net.broadcast("a", "msg", 100, include_self=True)
    kernel.run()
    assert len(boxes["a"]) == 1


def test_partition_blocks_both_directions():
    kernel, net = make_net()
    box_a = attach_inbox(net, "a")
    box_b = attach_inbox(net, "b")
    net.partition("a", "b")
    assert not net.send("a", "b", "x", 10)
    assert not net.send("b", "a", "x", 10)
    kernel.run()
    assert box_a == [] and box_b == []
    assert net.stats.messages_dropped == 2


def test_heal_restores_traffic():
    kernel, net = make_net()
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    net.partition("a", "b")
    net.heal("a", "b")
    assert net.send("a", "b", "x", 10)
    kernel.run()
    assert len(box_b) == 1


def test_partition_drops_in_flight_messages():
    # A message already on the wire is lost if the partition forms before
    # arrival — matches cable-cut semantics.
    kernel, net = make_net(LinkSpec(latency_s=0.010, jitter_s=0.0, bandwidth_bps=100e6))
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    net.send("a", "b", "x", 10)
    net.partition("a", "b")
    kernel.run()
    assert box_b == []


def test_crashed_node_sends_and_receives_nothing():
    kernel, net = make_net()
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    net.crash("a")
    assert not net.send("a", "b", "x", 10)
    net.recover("a")
    assert net.send("a", "b", "x", 10)
    kernel.run()
    assert len(box_b) == 1


def test_lossy_link_drops_probabilistically():
    kernel, net = make_net(LinkSpec(latency_s=0.0, jitter_s=0.0, bandwidth_bps=100e6, loss_prob=0.5), seed=3)
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    for _ in range(200):
        net.send("a", "b", "x", 10)
    kernel.run()
    assert 50 < len(box_b) < 150  # ~100 expected


def test_unknown_destination_raises():
    _, net = make_net()
    attach_inbox(net, "a")
    with pytest.raises(ConfigError):
        net.send("a", "ghost", "x", 10)


def test_duplicate_registration_rejected():
    _, net = make_net()
    attach_inbox(net, "a")
    with pytest.raises(ConfigError):
        net.register("a", lambda *args: None)


def test_stats_and_utilization():
    spec = LinkSpec(latency_s=0.0, jitter_s=0.0, bandwidth_bps=100e6)
    kernel, net = make_net(spec)
    attach_inbox(net, "a")
    attach_inbox(net, "b")
    net.send("a", "b", "x", 12500)  # 1 ms of a 100 Mbit/s link
    kernel.run()
    kernel.run_until(1.0)
    assert net.stats.bytes_sent["a"] == 12500
    assert net.stats.bytes_received["b"] == 12500
    assert net.utilization("a") == pytest.approx(0.001)


def test_window_utilization_resets():
    spec = LinkSpec(latency_s=0.0, jitter_s=0.0, bandwidth_bps=100e6)
    kernel, net = make_net(spec)
    attach_inbox(net, "a")
    attach_inbox(net, "b")
    net.send("a", "b", "x", 12500)
    kernel.run()
    kernel.run_until(1.0)
    net.reset_window()
    kernel.run_until(2.0)
    assert net.window_utilization("a") == 0.0


def test_deterministic_with_same_seed():
    def run(seed):
        kernel, net = make_net(LinkSpec(latency_s=0.001, jitter_s=0.001, bandwidth_bps=100e6), seed=seed)
        arrivals = []
        net.register("b", lambda src, p, s: arrivals.append(kernel.now))
        net.register("a", lambda *args: None)
        for _ in range(20):
            net.send("a", "b", "x", 100)
        kernel.run()
        return arrivals

    assert run(5) == run(5)
    assert run(5) != run(6)


IN_FLIGHT = LinkSpec(latency_s=0.010, jitter_s=0.0, bandwidth_bps=100e6)


@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_fault_between_send_and_arrival_drops_and_counts_at_arrival(fault):
    kernel, net = make_net(IN_FLIGHT)
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    assert net.send("a", "b", "x", 10)  # on the wire: the sender was told so
    if fault == "crash":
        net.crash("b")
    else:
        net.partition("a", "b")
    assert net.stats.messages_dropped == 0  # not yet: it is lost when it lands
    kernel.run()
    assert box_b == []
    assert net.stats.messages_dropped == 1
    assert net.stats.bytes_sent["a"] == 10 and "b" not in net.stats.bytes_received


@pytest.mark.parametrize("fault", ["crash", "partition"])
def test_fault_lifted_before_arrival_delivers(fault):
    # Arrival reads the fault sets as they are then, not as they were at send.
    kernel, net = make_net(IN_FLIGHT)
    box_b = attach_inbox(net, "b")
    attach_inbox(net, "a")
    net.send("a", "b", "x", 10)
    if fault == "crash":
        net.crash("b")
        net.recover("b")
    else:
        net.partition("a", "b")
        net.heal_all()
    kernel.run()
    assert box_b == [("a", "x", 10)]
    assert net.stats.messages_dropped == 0 and net.stats.bytes_received["b"] == 10


def test_inbound_context_is_exposed_for_the_callback_only_even_if_it_raises():
    kernel, net = make_net(IN_FLIGHT)
    seen = []

    def receive(src, payload, size):
        seen.append(net.inbound_context)
        if payload == "boom":
            raise RuntimeError(payload)

    net.register("b", receive)
    attach_inbox(net, "a")
    net.send("a", "b", "boom", 10, ctx="ctx-1")
    net.send("a", "b", "fine", 10, ctx="ctx-2")
    net.send("a", "b", "bare", 10)
    with pytest.raises(RuntimeError, match="boom"):
        kernel.run()
    assert seen == ["ctx-1"] and net.inbound_context is None
    kernel.run()
    assert seen == ["ctx-1", "ctx-2", None] and net.inbound_context is None
