"""One scenario, three runtimes, two backends: the same contract everywhere.

``run_scenario`` takes the runtime as a parameter, so this battery runs the
*same* :class:`ScenarioConfig` on the simulator, over TCP sockets and with
one OS process per node, on PBFT and on LinearBFT, and holds each run to
what a fault-free run owes: every node logs every bus cycle, one head per
height, a clean oracle, a ``bus.rx`` before ``req.logged``, no drops, latency
measured.  (The style of ``tests/bft``'s two-backend battery: a runtime or
backend that joins ``RUNTIMES``/``BACKENDS`` is tested by joining.)

Live runs are wall-clock paced; they stay at a handful of cycles.
"""

from dataclasses import fields, replace

import hypothesis  # noqa: F401  (pre-import: see tests/runtime/test_asyncio_runtime.py)
import pytest

from repro.bft import BACKENDS
from repro.bus.faults import ReceptionFaultConfig
from repro.faults.behaviors import ByzantineSpec
from repro.obs import RecordingTracer, check_trace
from repro.runtime import EnvCounters
from repro.scenarios import RUNTIMES, ScenarioConfig, run_scenario
from repro.util.errors import ConfigError

CONFIG = ScenarioConfig(n=4, cycle_time_s=0.032, block_size=5,
                        soft_timeout_s=0.4, hard_timeout_s=0.4)
#: 8.75 cycles: the simulator emits 8 and has most of a cycle to log the
#: last one; the live feeder rounds to 9 and waits until they are logged.
DURATION_S = 0.28
LIVE = [name for name in RUNTIMES if name != "sim"]
#: Runtimes that hand a node its bus cycle before any consensus traffic about it.
IN_ORDER = ("sim", "tcp")


@pytest.fixture(scope="module",
                params=[(runtime, backend) for runtime in RUNTIMES for backend in BACKENDS],
                ids="-".join)
def run(request):
    runtime, backend = request.param
    tracer = RecordingTracer()
    result = run_scenario(replace(CONFIG, bft_backend=backend), runtime,
                          DURATION_S, tracer=tracer)
    return runtime, result, tracer.events


def test_runtimes_and_backends_are_the_ones_the_battery_expects():
    assert list(RUNTIMES) == ["sim", "tcp", "mp"]
    assert sorted(BACKENDS) == ["linear", "pbft"]


def test_every_node_logs_every_cycle(run):
    _, result, _ = run
    cycles = result.requests_expected
    assert cycles in (8, 9)
    assert result.completed
    assert result.errors == {}
    assert result.requests_logged == cycles
    assert result.metrics["requests.logged"] == CONFIG.n * cycles
    assert result.metrics["layer.logged"] == CONFIG.n * cycles


def test_one_head_per_height(run):
    _, result, _ = run
    assert sorted(result.chain_heights) == [f"node-{i}" for i in range(CONFIG.n)]
    assert set(result.chain_heights.values()) == {result.requests_expected // CONFIG.block_size}
    assert result.heads_consistent
    assert len(set(result.head_hashes.values())) == 1


def test_oracle_is_clean(run):
    _, result, events = run
    assert result.findings == []
    assert check_trace(events).ok


def test_bus_rx_precedes_req_logged_per_request(run):
    """A digest's first ``bus.rx`` anywhere precedes every ``req.logged`` of it.

    That is OBS003's provenance and holds on every runtime.  On the in-order
    runtimes it also holds per node; on the multiprocess queue a backup can
    decide a request from consensus traffic before its own inbox hands it the
    cycle, so its ``bus.rx`` may come after its ``req.logged``.
    """
    runtime, result, events = run
    first_rx: dict[str, int] = {}
    node_rx: dict[tuple, int] = {}
    logged = 0
    for event in events:
        digest = event.get("digest")
        if event.name == "bus.rx":
            first_rx.setdefault(digest, event.seq)
            node_rx.setdefault((event.node, digest), event.seq)
        elif event.name == "req.logged":
            assert digest in first_rx, f"req.logged without any bus.rx: {digest}"
            assert event.seq > first_rx[digest]
            if runtime in IN_ORDER:
                key = (event.node, digest)
                assert key in node_rx, f"req.logged without this node's bus.rx: {key}"
                assert event.seq > node_rx[key]
            logged += 1
    assert logged == CONFIG.n * result.requests_expected


def test_trace_order_holds(run):
    _, _, events = run
    seqs = [event.seq for event in events]
    assert seqs == sorted(set(seqs))
    last: dict[str, float] = {}
    for event in events:
        assert event.t >= last.get(event.node, 0.0)
        last[event.node] = event.t


def test_counters_mean_the_same(run):
    """One per-node fold: the bus side and the env side under the same names."""
    _, result, _ = run
    assert result.metrics["layer.received"] == CONFIG.n * result.requests_expected
    assert result.metrics["env.drops"] == 0
    assert result.metrics["env.broadcasts"] > 0
    assert result.metrics["bft.decided"] >= CONFIG.n * result.requests_expected
    assert result.view_changes == 0
    # Every runtime reports the same env.* keys: one per EnvCounters field.
    assert ({name for name in result.metrics if name.startswith("env.")}
            == {"env." + field.name for field in fields(EnvCounters)})


def test_latency_is_measured(run):
    _, result, _ = run
    assert 0 < result.mean_latency_s <= result.p99_latency_s <= result.max_latency_s
    assert result.phases["end_to_end"]["count"] == result.requests_expected


def test_hardware_figures_exist_on_the_simulator_only(run):
    runtime, result, _ = run
    figures = (result.network_utilization, result.cpu_utilization,
               result.memory_mean_bytes, result.memory_peak_bytes)
    if runtime == "sim":
        assert all(figure > 0 for figure in figures)
        assert " net=" in result.summary_row() and " mem=" in result.summary_row()
    else:
        assert figures == (None, None, None, None)
        assert result.summary_row().rstrip().endswith("ms")


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_payload_bytes_sets_the_logged_request_size(runtime):
    """The config field reaches the bus feed of every runtime, not a stamped stand-in."""
    blocks = {}
    for payload_bytes in (64, 2048):
        result = run_scenario(replace(CONFIG, payload_bytes=payload_bytes), runtime, DURATION_S)
        assert result.completed and set(result.chain_heights.values()) == {1}
        blocks[payload_bytes] = result.metrics["chain.bytes"] / CONFIG.n
    per_request = (blocks[2048] - blocks[64]) / CONFIG.block_size
    assert 0.9 * (2048 - 64) < per_request < 1.3 * (2048 - 64)


@pytest.mark.parametrize("runtime", LIVE)
def test_live_runtimes_refuse_what_only_the_simulator_can_do(runtime):
    with pytest.raises(ConfigError, match="bus_faults"):
        run_scenario(replace(CONFIG, bus_faults={"node-1": ReceptionFaultConfig.none()}),
                     runtime, DURATION_S)
    with pytest.raises(ConfigError, match="crash_at_s"):
        run_scenario(replace(CONFIG, byzantine={"node-2": ByzantineSpec(crash_at_s=0.1)}),
                     runtime, DURATION_S)


def test_bad_configs_and_runtimes_are_refused_everywhere():
    with pytest.raises(ConfigError, match="n >= 4"):
        replace(CONFIG, n=3)
    for runtime in RUNTIMES:
        with pytest.raises(ConfigError, match="checkpoint interval"):
            run_scenario(replace(CONFIG, block_size=0), runtime, DURATION_S)
    with pytest.raises(ConfigError, match="unknown runtime"):
        run_scenario(CONFIG, "carrier-pigeon", DURATION_S)
