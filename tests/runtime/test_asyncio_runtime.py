"""End-to-end test of the ZugChain stack over real asyncio TCP sockets."""

import asyncio

import hypothesis  # noqa: F401  (pre-import: the pytest plugin imports it lazily
#                   at terminal summary, which on CPython 3.11 can hit the
#                   "AST constructor recursion depth mismatch" bug when first
#                   imported inside a deep teardown stack)
import pytest

from repro.runtime.asyncio_runtime import AsyncioCluster
from repro.scenarios import NodeRecipe, ScenarioConfig
from repro.wire import Request

RECIPE = NodeRecipe(ScenarioConfig(block_size=5, soft_timeout_s=0.4, hard_timeout_s=0.4))
IDS = RECIPE.ids


def make_node(env):
    return RECIPE.build_node(env.node_id, env)


def bus_request(cycle):
    return Request(payload=b"tcp-cycle-%d" % cycle, bus_cycle=cycle,
                   recv_timestamp_us=cycle * 20_000)


async def _drive(cluster, cycles, interval_s=0.02):
    for cycle in range(1, cycles + 1):
        request = bus_request(cycle)
        # Every node reads the same bus data locally.
        for node in cluster.nodes().values():
            node.inject_request(request)
        await asyncio.sleep(interval_s)


async def _wait_until(predicate, timeout_s=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.05)
    return False


def run(coro):
    # asyncio.run cancels lingering connection-handler tasks at shutdown.
    return asyncio.run(coro)


def test_tcp_cluster_orders_and_chains():
    async def scenario():
        cluster = AsyncioCluster(make_node, n=4)
        await cluster.start()
        try:
            cycles = 15
            await _drive(cluster, cycles)
            done = await _wait_until(
                lambda: all(n.requests_logged >= cycles for n in cluster.nodes().values())
            )
            assert done, "not all nodes logged every request over TCP"
            heights = {n.chain.height for n in cluster.nodes().values()}
            assert heights == {cycles // 5}  # block size 5
            heads = {n.chain.head.block_hash for n in cluster.nodes().values()}
            assert len(heads) == 1
            for node in cluster.nodes().values():
                node.chain.verify()
        finally:
            await cluster.stop()

    run(scenario())


def test_tcp_bad_frames_are_counted_not_fatal():
    """A garbage frame bumps decode_errors; the stream keeps working."""
    async def scenario():
        cluster = AsyncioCluster(make_node, n=4)
        await cluster.start()
        try:
            # Inject a framed-but-undecodable payload from node-1 to node-0
            # on the already-authenticated connection, then real traffic.
            env1 = cluster.hosted["node-1"].env
            junk = b"\xff\xfe\xfd\xfc"
            env1._writers["node-0"].write(len(junk).to_bytes(4, "big") + junk)
            cycles = 5
            await _drive(cluster, cycles)
            done = await _wait_until(
                lambda: all(n.requests_logged >= cycles for n in cluster.nodes().values())
            )
            assert done, "cluster stalled after an undecodable frame"
            env0 = cluster.hosted["node-0"].env
            assert env0.counters.decode_errors == 1
            assert env0.counters.oversize_frames == 0
        finally:
            await cluster.stop()

    run(scenario())


def test_tcp_broadcast_fans_out_in_sorted_order():
    async def scenario():
        cluster = AsyncioCluster(make_node, n=4)
        await cluster.start()
        try:
            for hosted in cluster.hosted.values():
                others = sorted(set(IDS) - {hosted.env.node_id})
                assert hosted.env.broadcast_targets() == tuple(others)
                assert sorted(hosted.env._writers) == others
        finally:
            await cluster.stop()

    run(scenario())


def test_tcp_cluster_filters_duplicates():
    async def scenario():
        cluster = AsyncioCluster(make_node, n=4)
        await cluster.start()
        try:
            request = bus_request(1)
            for _ in range(3):  # bus redelivery of identical data
                for node in cluster.nodes().values():
                    node.inject_request(request)
            await _wait_until(
                lambda: all(n.requests_logged >= 1 for n in cluster.nodes().values())
            )
            await asyncio.sleep(0.3)
            for node in cluster.nodes().values():
                assert node.requests_logged == 1  # one payload, logged once
        finally:
            await cluster.stop()

    run(scenario())


def test_tcp_bad_frame_moves_aggregated_cluster_counter():
    """The cluster-level metrics fold surfaces transport-layer faults.

    Closes the ROADMAP gap "nothing aggregates the env counters": a bad
    frame observed by one node must show up in the single cluster-wide
    registry, alongside the BFT/layer counters, without per-env spelunking.
    """
    async def scenario():
        cluster = AsyncioCluster(make_node, n=4)
        await cluster.start()
        try:
            before = cluster.aggregate_metrics().counter_values()
            assert before.get("env.decode_errors", 0) == 0
            env1 = cluster.hosted["node-1"].env
            junk = b"\x00\x01\x02\x03"
            env1._writers["node-0"].write(len(junk).to_bytes(4, "big") + junk)
            cycles = 5
            await _drive(cluster, cycles)
            done = await _wait_until(
                lambda: all(n.requests_logged >= cycles for n in cluster.nodes().values())
            )
            assert done, "cluster stalled after an undecodable frame"
            after = cluster.aggregate_metrics().counter_values()
            assert after["env.decode_errors"] == 1
            assert after["env.oversize_frames"] == 0
            # The same registry carries the protocol-level counters.
            assert after["bft.decided"] >= cycles
            assert after["layer.logged"] >= cycles * 4
            assert after["env.messages_emitted"] > before.get("env.messages_emitted", 0)
        finally:
            await cluster.stop()

    run(scenario())
