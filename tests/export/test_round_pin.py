"""The outcome of one seeded export round, pinned.

The values were recorded before the chain layer memoised block roots and
sliced its prunes by height.  A host-speed change to ``chain`` or
``export`` must reproduce them exactly: the simulated clock, the archive
head and the event count are the behaviour, the host time is not.
"""

from repro.export.scenario import ExportScenario, ExportScenarioConfig

HEAD = "20b9a433c3594d300bfc9d9cf0417d4be7a5ed36003d3b0051af5edd627e7c44"


def test_seeded_round_outcome_is_pinned():
    scenario = ExportScenario(ExportScenarioConfig(n_blocks=200, seed=42))
    round_ = scenario.run_export()
    archive = scenario.datacenters["dc-0"].archive

    assert archive.height == 200
    assert archive.head.block_hash.hex() == HEAD
    assert round_.blocks_exported == 200
    assert round_.read_s == 0.37822830277090147
    assert round_.verify_s == 0.005528518400000015
    assert round_.delete_s == 0.09306529252254298
    assert round_.total_s == 0.47682211369344446
    assert scenario.kernel.events_fired == 36
    for handler in scenario.handlers.values():
        assert (handler.chain.base_height, handler.chain.height) == (200, 200)
        assert handler.chain.total_size_bytes() == 1575

    scenario.kernel.run(max_events=100_000)
    peer = scenario.datacenters["dc-1"]
    assert scenario.kernel.events_fired == 42
    assert peer.archive.head.block_hash.hex() == HEAD
    assert peer.last_exported_sn == 2000
