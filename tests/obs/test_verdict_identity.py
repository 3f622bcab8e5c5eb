"""The oracle's verdicts are API: a seeded violation corpus pins them.

``repro chaos`` writes findings into ``RunRecord`` JSON and ``repro obs
check`` prints them, so codes, messages, addressing and *order* may not
move when the oracle's implementation does.  The corpus is perfbench's
``crash-storm`` schedule at seed 42 plus twelve ``random.Random(5)``
mutations of its trace, each judged with the cluster's faulty set and with
none, with and without a view-change bound (40 ms, which half of the storm's
stalls exceed); every case is one SHA-256 over
the report.  Hand-built traces cover what the mutations do not reach.

The pins were recorded at the commit *before* the oracle became one fold
(PR 24); regenerate them only for a deliberate change of a finding:
``PYTHONPATH=src python tests/obs/test_verdict_identity.py``.
"""

import hashlib
import json
import random

import pytest

from repro.chaos import ChaosInjector, CrashRecover, FaultSchedule, LossWindow
from repro.obs import RecordingTracer, build_dag, check_trace, pair_request_spans
from repro.obs.trace import TraceEvent
from repro.scenarios import ScenarioConfig, SimulatedCluster

FF = "ff" * 32
#: Half of the storm's ten view changes take longer than 40 ms.
VC_BOUND_S = 0.04
VERDICTS = ((True, None), (True, VC_BOUND_S), (False, None), (False, VC_BOUND_S))


def _crash_storm():
    """perfbench's ``crash-storm`` run at seed 42: (events, faulty nodes)."""
    tracer = RecordingTracer()
    cluster = SimulatedCluster(ScenarioConfig(
        system="zugchain", seed=42, cycle_time_s=0.064,
        payload_bytes=1024, block_size=10,
    ), tracer=tracer)
    ChaosInjector(cluster, FaultSchedule((
        CrashRecover(3.0, 2.0, "node-0"),
        LossWindow(8.0, 1.5, "node-1", "*", 1.0),
        CrashRecover(11.0, 2.0, "node-2"),
    ))).install()
    cluster.run(20.0)
    cluster.master.stop()
    cluster.kernel.run_until(cluster.kernel.now + 4.0)
    return tracer.events, cluster.faulty_node_ids()


def _mutations(base):
    """Twelve seeded corruptions, three of each kind, from one RNG stream."""
    rng = random.Random(5)
    with_digest = [i for i, e in enumerate(base) if isinstance(e.get("digest"), str)]
    with_clock = [i for i, e in enumerate(base) if e.lamport > 50]
    with_idx = [i for i, e in enumerate(base) if e.idx > 0]
    for index in range(12):
        events = list(base)
        kind = ("drop", "digest", "lamport", "idx")[index % 4]
        if kind == "drop":
            dropped = set(rng.sample(range(len(base)), len(base) // 50))
            events = [e for i, e in enumerate(base) if i not in dropped]
        elif kind == "digest":
            for i in rng.sample(with_digest, 5):
                fields = tuple((k, FF if k == "digest" else v) for k, v in base[i].fields)
                events[i] = base[i]._replace(fields=fields)
        elif kind == "lamport":
            for i in rng.sample(with_clock, 5):
                events[i] = base[i]._replace(lamport=base[i].lamport - 50)
        else:
            for i in rng.sample(with_idx, 5):
                events[i] = base[i]._replace(idx=base[i].idx - 1)
        yield f"{kind}-{index // 4}", events


def _sha(report):
    payload = json.dumps(report.to_dicts()) + f"|{report.checked_events}|{report.checked_nodes}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _event(trace_seq, node, name, *, t=0.0, idx=-1, lamport=0, cause="", **fields):
    # ``fields`` may carry its own "seq" (the BFT sequence number).
    return TraceEvent(seq=trace_seq, t=t, node=node, name=name,
                      fields=tuple(sorted(fields.items())),
                      idx=idx, lamport=lamport, cause=cause)


def _hand_built():
    """Traces for what no mutation reaches, by name."""
    fabricated = [
        _event(0, "node-0", "bus.rx", t=1.0, digest="aa" * 32),
        _event(1, "node-0", "req.logged", t=1.1, digest="aa" * 32, seq=1),
        _event(2, "node-2", "req.logged", t=1.2, digest="ee" * 32, seq=3),
        _event(3, "node-1", "req.logged", t=1.3, digest="dd" * 32),
    ]
    # OBS005 cannot fire on real spans (the phases telescope by construction);
    # a mark at 1e16 absorbs the 1.0 next to it and the sum drifts by 1.0.
    drifting = [
        _event(0, "node-0", "bus.rx", t=0.0, digest="aa" * 32),
        _event(1, "node-0", "bft.preprepare", t=1e16, digest="aa" * 32, seq=4),
        _event(2, "node-0", "bft.commit", t=1.0, digest="aa" * 32, seq=4),
        _event(3, "node-0", "req.logged", t=3.0, digest="aa" * 32, seq=4),
        _event(4, "node-1", "bus.rx", t=1.0, digest="aa" * 32),
        _event(5, "node-1", "bft.preprepare", t=1.1, digest="aa" * 32, seq=4),
        _event(6, "node-1", "bft.commit", t=1.2, digest="aa" * 32, seq=4),
        _event(7, "node-1", "req.logged", t=1.3, digest="aa" * 32, seq=4),
    ]
    # A cause may cite an event *later* in seq order (a corrupt merge): it is
    # still found, so no orphan, and its regression sorts by the child's place
    # among the program-edge regressions around it.
    forward = [
        _event(0, "node-0", "bus.rx", idx=0, lamport=9),
        _event(1, "node-0", "bft.commit", idx=1, lamport=9),               # program regression
        _event(2, "node-1", "bft.commit", idx=0, lamport=3, cause="node-2#0"),  # parent is seq 4
        _event(3, "node-1", "req.logged", idx=1, lamport=2),               # program regression
        _event(4, "node-2", "bus.rx", idx=0, lamport=7),
        _event(5, "node-2", "bft.commit", idx=1, lamport=8, cause="node-3#5"),  # orphan
        _event(6, "node-2", "bft.commit", idx=1, lamport=9),               # duplicate identity
        _event(6, "node-0", "req.logged", idx=2, lamport=1, cause="node-2#1"),  # repeated seq
    ]
    # An escalation extends the open stall; node-2's never closes.
    stalled = [
        _event(0, "node-1", "bft.viewchange.start", t=2.0, view=1),
        _event(1, "node-2", "bft.viewchange.start", t=2.0, view=1),
        _event(2, "node-1", "bft.viewchange.start", t=2.5, view=2),
        _event(3, "node-1", "bft.viewchange.end", t=3.0, view=2),
        _event(4, "node-1", "bft.viewchange.end", t=3.5, view=2),
    ]
    return {"fabricated": fabricated, "drifting": drifting,
            "forward-cause": forward, "stalled": stalled}


def _cases(base, faulty):
    traces = {"seed-42": base, **dict(_mutations(base)), **_hand_built()}
    cases = {}
    for name, events in traces.items():
        for excuse, bound in VERDICTS:
            report = check_trace(events, faulty=faulty if excuse else (), vc_bound_s=bound)
            cases[f"{name}|faulty={int(excuse)}|vc={bound}"] = _sha(report)
    cases["seed-42|generator"] = _sha(check_trace((e for e in base), faulty=faulty))
    cases["seed-42|dag"] = build_dag(base).fingerprint()
    cases["drop-0|dag"] = build_dag(traces["drop-0"]).fingerprint()
    cases["forward-cause|dag"] = build_dag(traces["forward-cause"]).fingerprint()
    spans = pair_request_spans(base)
    cases["seed-42|spans"] = hashlib.sha256(json.dumps({
        "phases": {name: stats.snapshot() for name, stats in spans.phase_stats.items()},
        "end_to_end": spans.end_to_end.snapshot(),
        "complete": len(spans.spans),
        "incomplete": [(s.node, s.digest) for s in spans.incomplete],
    }, sort_keys=True).encode()).hexdigest()
    spans = pair_request_spans(base, node="node-3", since=6.0)
    cases["seed-42|spans|node-3|since=6"] = hashlib.sha256(json.dumps({
        name: stats.snapshot() for name, stats in spans.phase_stats.items()
    }, sort_keys=True).encode()).hexdigest()
    return cases


PINNED: dict[str, str] = {
    "seed-42|faulty=1|vc=None": "4a7a3ee1fa6262025cdd5cb3b4943c167efd1c2db29a62a1565efc07e7d0ebfc",
    "seed-42|faulty=1|vc=0.04": "5f4d0eff54ab129e0e87067173b7a15908fe421272ac0016d70f73ff228ad104",
    "seed-42|faulty=0|vc=None": "4a7a3ee1fa6262025cdd5cb3b4943c167efd1c2db29a62a1565efc07e7d0ebfc",
    "seed-42|faulty=0|vc=0.04": "5f4d0eff54ab129e0e87067173b7a15908fe421272ac0016d70f73ff228ad104",
    "drop-0|faulty=1|vc=None": "10ce294a7d02817671e227cce2904832280efc87130743b5ee4f29e12365ffb9",
    "drop-0|faulty=1|vc=0.04": "098ab75352494b7e3738b49429538b19eeab2f147b73c30a4abaa46f604d421b",
    "drop-0|faulty=0|vc=None": "83014e5724500deac42500067e9b0a887af4a00e991b0a30a51a8a6e5fc2433a",
    "drop-0|faulty=0|vc=0.04": "005345a24ac322182cd3ce80608ec37c6d4627ff5c95ecb023947ed8f5c453bb",
    "digest-0|faulty=1|vc=None": "4a7a3ee1fa6262025cdd5cb3b4943c167efd1c2db29a62a1565efc07e7d0ebfc",
    "digest-0|faulty=1|vc=0.04": "5f4d0eff54ab129e0e87067173b7a15908fe421272ac0016d70f73ff228ad104",
    "digest-0|faulty=0|vc=None": "e858b0a6793044b3d0c058674170174a2db3d9820b922c4c2a77ab7446256d50",
    "digest-0|faulty=0|vc=0.04": "1251ebc69be252329162307111ebecea3070c294dbf7fd5ca1c64e1c6a13fa74",
    "lamport-0|faulty=1|vc=None": "9b1e8fac42848fa1a04e9a83c9f0fd45afc07d2719d5ff31d08d92cd0e69f789",
    "lamport-0|faulty=1|vc=0.04": "f50ad5c205e2c3c167b00a765960602c42473503194c3c47cff0bb4072c31e5a",
    "lamport-0|faulty=0|vc=None": "9b1e8fac42848fa1a04e9a83c9f0fd45afc07d2719d5ff31d08d92cd0e69f789",
    "lamport-0|faulty=0|vc=0.04": "f50ad5c205e2c3c167b00a765960602c42473503194c3c47cff0bb4072c31e5a",
    "idx-0|faulty=1|vc=None": "89ac5e03a90cea3bc6082173b4ea4d7c045c2d022e6d155f504a261ea7cd1e1b",
    "idx-0|faulty=1|vc=0.04": "afd419bb4c45431fada7a430ad6c8c6eb5b9bb9766fd9cd9b23b82d8a0dea7bd",
    "idx-0|faulty=0|vc=None": "89ac5e03a90cea3bc6082173b4ea4d7c045c2d022e6d155f504a261ea7cd1e1b",
    "idx-0|faulty=0|vc=0.04": "afd419bb4c45431fada7a430ad6c8c6eb5b9bb9766fd9cd9b23b82d8a0dea7bd",
    "drop-1|faulty=1|vc=None": "edfefa05d0a0e9715785df4859308b817461f04fc6ca7f5a8b245ef127c46673",
    "drop-1|faulty=1|vc=0.04": "5ecbd6764d7eab7d9025b169a4510ce0078d83268b0ab545bba864de7a491d5e",
    "drop-1|faulty=0|vc=None": "73afce75943636b2abdd9a2ec49df43c48d19856bb765b347f690e790db2fe4f",
    "drop-1|faulty=0|vc=0.04": "25bf4e66c0d761bb3eaf09b58a075fb57bcbf643069901423a1bee47e37dd632",
    "digest-1|faulty=1|vc=None": "85f105053fc1af81ae9e724d10aafdcf607a201c75ec2129979233e957520ccb",
    "digest-1|faulty=1|vc=0.04": "f84dd3f317696e624e00ac43af8b3f0332446a7afe6ebe05f7a9c10c4bd48433",
    "digest-1|faulty=0|vc=None": "1798a927d68534b5933b8eea6b6635cf3f4c10cf0d55155b6c6cccb66cd2826c",
    "digest-1|faulty=0|vc=0.04": "f0c6dc3fb05ff475e4fb9bdcd739e54b007e6c20a1635be8502c1a5c8976e73a",
    "lamport-1|faulty=1|vc=None": "871cdf34bf2f9f33c63d089430e560576100a2a1fb150490e703a58dde3f8d6c",
    "lamport-1|faulty=1|vc=0.04": "2e13d749c79fcf8beb4319cfcf16d7666f74e3180f2681928f8678c1395f0f16",
    "lamport-1|faulty=0|vc=None": "871cdf34bf2f9f33c63d089430e560576100a2a1fb150490e703a58dde3f8d6c",
    "lamport-1|faulty=0|vc=0.04": "2e13d749c79fcf8beb4319cfcf16d7666f74e3180f2681928f8678c1395f0f16",
    "idx-1|faulty=1|vc=None": "fd8d36605c056cbc11c1d9846046e04a1743a148801e8b6c59b763ec51107790",
    "idx-1|faulty=1|vc=0.04": "3d42fecfabadc5ab8036d4bddc477fa4cf9e90b616030692104f3077dc8f4686",
    "idx-1|faulty=0|vc=None": "fd8d36605c056cbc11c1d9846046e04a1743a148801e8b6c59b763ec51107790",
    "idx-1|faulty=0|vc=0.04": "3d42fecfabadc5ab8036d4bddc477fa4cf9e90b616030692104f3077dc8f4686",
    "drop-2|faulty=1|vc=None": "4c39ef82db09ad2ae1846cb6562e0b0e5f28bde6bb56a72ddb91e09b67392b5d",
    "drop-2|faulty=1|vc=0.04": "633e224f9793c402d8de8d0e73df53cf7c56f0e21653924a7095f86d5a9f9e08",
    "drop-2|faulty=0|vc=None": "9ed2efcd56a66afcaa659f757256bd6d3aab6e7c173310c389217b17edb39ab3",
    "drop-2|faulty=0|vc=0.04": "4bfb5c3d95e7fbacdf6cebd7b9682ed36421ad861e2500f3ca32ff727b4022cf",
    "digest-2|faulty=1|vc=None": "9966bb9e392b770d57180106684e0d3929ad9881ea17e66732c4bb6c51413592",
    "digest-2|faulty=1|vc=0.04": "480e4d2b45e132073d4ee114c3cdf4d979687dc27722b390adc2a4f0f20a9bb9",
    "digest-2|faulty=0|vc=None": "4977918cfa76bd1d1404405adc6ad2ff3fd32500862b5e7784ad51965755409f",
    "digest-2|faulty=0|vc=0.04": "fef473ee8b2b9d3cbca74b6792b3c5b7640b4469e808dabef160bf03733f9773",
    "lamport-2|faulty=1|vc=None": "b03f2b8c91c3a91c5a9c07c98a9d0fb216e0c58ada799f29b3c9c20bdbcc65a6",
    "lamport-2|faulty=1|vc=0.04": "6af9fc4d47df13ee0a0a4fdc360b58413dbbbffc091cac0f029761addb663f10",
    "lamport-2|faulty=0|vc=None": "b03f2b8c91c3a91c5a9c07c98a9d0fb216e0c58ada799f29b3c9c20bdbcc65a6",
    "lamport-2|faulty=0|vc=0.04": "6af9fc4d47df13ee0a0a4fdc360b58413dbbbffc091cac0f029761addb663f10",
    "idx-2|faulty=1|vc=None": "955e3226c192cb0568e4a1891ddfa1ed78d5ac6e13d59c20d7bddfa77cd4cd49",
    "idx-2|faulty=1|vc=0.04": "503983a34a0885e11ee1c05394a7920a682da96020a04fc4d126036ef343fce0",
    "idx-2|faulty=0|vc=None": "955e3226c192cb0568e4a1891ddfa1ed78d5ac6e13d59c20d7bddfa77cd4cd49",
    "idx-2|faulty=0|vc=0.04": "503983a34a0885e11ee1c05394a7920a682da96020a04fc4d126036ef343fce0",
    "fabricated|faulty=1|vc=None": "d7044ef2eeaba48ac514fca67ccbfd527f1a9732d209d4f98f1df3f4ad6fe646",
    "fabricated|faulty=1|vc=0.04": "d7044ef2eeaba48ac514fca67ccbfd527f1a9732d209d4f98f1df3f4ad6fe646",
    "fabricated|faulty=0|vc=None": "d7044ef2eeaba48ac514fca67ccbfd527f1a9732d209d4f98f1df3f4ad6fe646",
    "fabricated|faulty=0|vc=0.04": "d7044ef2eeaba48ac514fca67ccbfd527f1a9732d209d4f98f1df3f4ad6fe646",
    "drifting|faulty=1|vc=None": "f2fabc9e687af6693ff623bd58c71daf802f899f471a8f03679ef45188b266ee",
    "drifting|faulty=1|vc=0.04": "f2fabc9e687af6693ff623bd58c71daf802f899f471a8f03679ef45188b266ee",
    "drifting|faulty=0|vc=None": "f2fabc9e687af6693ff623bd58c71daf802f899f471a8f03679ef45188b266ee",
    "drifting|faulty=0|vc=0.04": "f2fabc9e687af6693ff623bd58c71daf802f899f471a8f03679ef45188b266ee",
    "forward-cause|faulty=1|vc=None": "f4ee58698d4f0fb133f81cc926a1c180c966c7ca847ac061d52a8de717414acb",
    "forward-cause|faulty=1|vc=0.04": "f4ee58698d4f0fb133f81cc926a1c180c966c7ca847ac061d52a8de717414acb",
    "forward-cause|faulty=0|vc=None": "f4ee58698d4f0fb133f81cc926a1c180c966c7ca847ac061d52a8de717414acb",
    "forward-cause|faulty=0|vc=0.04": "f4ee58698d4f0fb133f81cc926a1c180c966c7ca847ac061d52a8de717414acb",
    "stalled|faulty=1|vc=None": "221738fd848e591ecdccf892f143d28a39d6e5cd6d036c3eb83a22031c962724",
    "stalled|faulty=1|vc=0.04": "3c8dfd669878cbc88f82003bf5473de0a55ccd6eee3519207a54ebe425112b4b",
    "stalled|faulty=0|vc=None": "221738fd848e591ecdccf892f143d28a39d6e5cd6d036c3eb83a22031c962724",
    "stalled|faulty=0|vc=0.04": "3c8dfd669878cbc88f82003bf5473de0a55ccd6eee3519207a54ebe425112b4b",
    "seed-42|generator": "4a7a3ee1fa6262025cdd5cb3b4943c167efd1c2db29a62a1565efc07e7d0ebfc",
    "seed-42|dag": "936188810da1a1cdd866fd62f2b8773b897f4f23000a03d563dae092514595a2",
    "drop-0|dag": "ac61e2e323f386b2c2459223063005da854e39e28f221ec11e6fa13b75b2b300",
    "forward-cause|dag": "e4e37bc2f832b2dfac55049e7b10f207a886f212d78ad94c91c99240db52b046",
    "seed-42|spans": "75f38596b1d706e4f4edc15ab9ea60d14572299641ae5b1099bfb17c6cb5edd1",
    "seed-42|spans|node-3|since=6": "87f32b785f785a7ff5f82adf7a4f8b234e36fcd5f4cf549d65e21fcf416de783"
}


@pytest.fixture(scope="module")
def storm():
    return _crash_storm()


@pytest.fixture(scope="module")
def cases(storm):
    return _cases(*storm)


def test_the_corpus_reaches_every_invariant(storm):
    base, faulty = storm
    codes = set()
    for events in (*dict(_mutations(base)).values(), *_hand_built().values()):
        codes.update(check_trace(events, vc_bound_s=VC_BOUND_S).by_code())
    assert check_trace(base, faulty=faulty).ok
    assert codes == {f"OBS00{n}" for n in range(1, 9)}


def test_every_verdict_is_byte_identical_to_the_pinned_one(cases):
    assert set(cases) == set(PINNED)
    moved = sorted(name for name in cases if cases[name] != PINNED[name])
    assert moved == []


def test_a_one_shot_generator_is_judged_like_a_list(cases):
    assert cases["seed-42|generator"] == cases["seed-42|faulty=1|vc=None"]


if __name__ == "__main__":
    print("PINNED: dict[str, str] = " + json.dumps(_cases(*_crash_storm()), indent=4))
