"""Seeded crash/recover runs pinned to their exact outcome.

A recovered node rebuilds its in-memory state from its durable store: the
chain replayed in height order, its requests marked as logged for duplicate
filtering, the replica fast-forwarded from the persisted stable checkpoint.
Each case crashes one node after several blocks, recovers it, and records
what the rebuilt node held at the moment it came back plus how the whole
run ended.  The figures are pinned from the simulator, so any change to the
store, the replay or the rejoin that moves one event shows here.
"""

import pytest

from repro.faults import ByzantineSpec
from repro.faults.behaviors import DuplicateProposingLayer
from repro.scenarios import ScenarioConfig, SimulatedCluster

CRASH_AT_S = 3.0
RECOVER_AT_S = 4.5
END_S = 9.0


def crash_and_recover(node_id: str, **config) -> dict:
    cluster = SimulatedCluster(ScenarioConfig(system="zugchain", **config))
    seen: dict = {}

    def recover() -> None:
        cluster.recover_node(node_id)
        node = cluster.nodes[node_id]
        seen.update(
            height=node.chain.height,
            last_stable_seq=node.replica.last_stable_seq,
            synced_recorded=node.layer.stats.synced_recorded,
            layer=type(node.layer),
        )

    cluster.kernel.schedule(CRASH_AT_S, lambda: cluster.crash_node(node_id))
    cluster.kernel.schedule(RECOVER_AT_S, recover)
    result = cluster.run(duration_s=END_S, warmup_s=0.0)
    seen.update(heads=result.head_hashes, events_fired=cluster.kernel.events_fired)
    return seen


CASES = {
    "backup": ("node-2", {}),
    "primary": ("node-0", {}),
    "dup-proposer": ("node-0",
                     {"byzantine": {"node-0": ByzantineSpec(propose_duplicates=True)}}),
}

# (height, last_stable_seq, synced_recorded) on recovery, then the run's
# events_fired and the head hash every node ends on.
PINNED = {
    "backup": (4, 30, 40, 7854,
               "fcfd1c2655fab1a6a562ee58fd6b217c0029fe2ce418ebd041e2260abb600d28"),
    "primary": (4, 30, 40, 7951,
                "817ef637908a624ae813b0cdd9bf32981dfde736dce3abb78b8f90432d2aafe8"),
    "dup-proposer": (4, 30, 40, 7811,
                     "a23c34a587034e4d2f2f5fa3745ffe113e11bdd35ab1e09f4ad20c102eea044f"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crash_recover_outcome_is_pinned(case):
    node_id, config = CASES[case]
    seen = crash_and_recover(node_id, **config)
    height, stable, synced, events, head = PINNED[case]
    assert seen["height"] > 0, "the crash must come after several blocks"
    assert (seen["height"], seen["last_stable_seq"], seen["synced_recorded"]) == (
        height, stable, synced)
    assert seen["events_fired"] == events
    assert seen["heads"] == dict.fromkeys(seen["heads"], head)
    assert len(seen["heads"]) == 4


def test_recovered_dup_proposer_runs_the_faulty_layer():
    node_id, config = CASES["dup-proposer"]
    assert crash_and_recover(node_id, **config)["layer"] is DuplicateProposingLayer
