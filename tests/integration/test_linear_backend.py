"""Full-stack integration of the LinearBFT backend."""

import pytest

from repro.chaos import ChaosInjector, CrashRecover, FaultSchedule, LossWindow
from repro.faults import ByzantineSpec
from repro.obs.trace import RecordingTracer
from repro.scenarios import ScenarioConfig, SimulatedCluster
from repro.util import ConfigError


def run_cluster(duration=12.0, **kwargs):
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain",
                                              bft_backend="linear", **kwargs))
    result = cluster.run(duration_s=duration, warmup_s=2.0)
    return cluster, result


def test_linear_backend_logs_every_cycle():
    cluster, result = run_cluster()
    assert result.requests_logged >= result.requests_expected - 1
    assert result.view_changes == 0
    heads = {cluster.nodes[i].chain.head.block_hash for i in cluster.ids}
    assert len(heads) == 1


def test_linear_backend_meets_jru_deadline():
    _, result = run_cluster()
    assert result.max_latency_s < 0.5
    assert result.cpu_utilization < 0.15


def test_linear_backend_survives_primary_crash():
    cluster, result = run_cluster(
        duration=20.0,
        byzantine={"node-0": ByzantineSpec(crash_at_s=8.0)},
    )
    assert result.view_changes >= 1
    survivors = [i for i in cluster.ids if i != "node-0"]
    assert max(len(cluster.nodes[i].latency.since(15.0)) for i in survivors) > 0
    heads = {cluster.nodes[i].chain.head.block_hash for i in survivors}
    assert len(heads) == 1


def test_linear_backend_checkpoints_support_export_path():
    cluster, _ = run_cluster()
    cert = cluster.nodes["node-1"].replica.latest_stable_checkpoint()
    assert cert is not None
    assert cert.verify(cluster.keystore, cluster.bft_config)


def test_linear_backend_recovers_like_pbft_under_the_crash_storm():
    # perfbench's crash-storm schedule.  At t=13.8 node-2 abandons a view
    # change on a stable checkpoint; unless that closes the stall in the trace
    # (ReplicaCore._handle_checkpoint) the oracle reports OBS004.
    cluster = SimulatedCluster(
        ScenarioConfig(system="zugchain", seed=42, bft_backend="linear"),
        tracer=RecordingTracer(),
    )
    ChaosInjector(cluster, FaultSchedule((
        CrashRecover(3.0, 2.0, "node-0"),
        LossWindow(8.0, 1.5, "node-1", "*", 1.0),
        CrashRecover(11.0, 2.0, "node-2"),
    ))).install()
    result = cluster.run(20.0)
    cluster.master.stop()
    cluster.kernel.run_until(cluster.kernel.now + 4.0)
    assert result.view_changes >= 1
    assert len({cluster.nodes[i].chain.head.block_hash for i in cluster.ids}) == 1
    assert cluster.check_invariants().to_dicts() == []


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(bft_backend="raft")


@pytest.mark.parametrize("ignored", [
    {"system": "baseline"},
    {"byzantine": {"node-0": ByzantineSpec(preprepare_delay_s=0.25)}},
], ids=["baseline", "delaying-primary"])
def test_linear_backend_refuses_what_would_silently_run_pbft(ignored):
    with pytest.raises(ConfigError):
        ScenarioConfig(bft_backend="linear", **ignored)
    ScenarioConfig(bft_backend="pbft", **ignored)
