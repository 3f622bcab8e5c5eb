"""Dispatch on a message's kind: both backends, the ZugChain node, the baseline.

Every dispatcher reads ``KINDS[type(message)]`` (:class:`repro.util.dispatch.KindMap`)
instead of walking an ``isinstance`` ladder.  The ladder's semantics are the
contract: an exact type and a subclass of it reach the same handler, an
unknown type is ignored (a Byzantine peer may send junk), and a replica
subclass that overrides a handler (``faults/behaviors.py``) is honoured.
"""

import dataclasses

import pytest

from repro.bft import BftConfig
from repro.bft.client import ClientRequestWrapper, Reply
from repro.bft.env import RecordingEnv
from repro.bft.linear import CommitCert, LinearBftReplica, Vote
from repro.bft.messages import (
    Checkpoint,
    Commit,
    DecideFetch,
    DecideProof,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.bft.replica import PbftReplica
from repro.bus.nsdb import standard_jru_catalog
from repro.core.baseline import BaselineNode
from repro.core.layer import ZugChainConfig
from repro.core.messages import ZugBroadcast, ZugForward
from repro.core.node import ZugChainNode
from repro.core.statesync import StateReply, StateRequest
from repro.crypto import HmacScheme, KeyStore
from repro.util.dispatch import KindMap

from tests.wire.golden_bytes import FIXTURES

SCHEME = HmacScheme()
IDS = tuple(f"node-{i}" for i in range(4))
CONFIG = BftConfig(replica_ids=IDS)
KEYSTORE = KeyStore(scheme=SCHEME)
PAIRS = {node_id: SCHEME.derive_keypair(node_id.encode()) for node_id in IDS}
for _node_id, _pair in PAIRS.items():
    KEYSTORE.register(_node_id, _pair.public)

HANDLER_OF = {
    PbftReplica: {
        PrePrepare: "_on_preprepare", Prepare: "_on_prepare", Commit: "_on_commit",
        Checkpoint: "_on_checkpoint", ViewChange: "_on_view_change", NewView: "_on_new_view",
        DecideFetch: "_on_decide_fetch", DecideProof: "_on_decide_proof",
    },
    LinearBftReplica: {
        PrePrepare: "_on_preprepare", Vote: "_on_vote", CommitCert: "_on_commit_cert",
        Checkpoint: "_on_checkpoint", ViewChange: "_on_view_change", NewView: "_on_new_view",
    },
}
BACKENDS = pytest.mark.parametrize("backend", list(HANDLER_OF), ids=lambda cls: cls.__name__)


def recording(backend):
    """``backend`` with every handler replaced by one that records its call."""
    calls = []

    def recorder(name):
        return lambda self, message: calls.append((name, message))

    cls = type(f"Recording{backend.__name__}", (backend,),
               {name: recorder(name) for name in HANDLER_OF[backend].values()})
    replica = cls(env=RecordingEnv(node_id="node-1"), config=CONFIG, keypair=PAIRS["node-1"],
                  keystore=KEYSTORE, on_decide=lambda request, seq: None)
    return replica, calls


def subclass_of(kind):
    """A frozen dataclass deriving ``kind`` — what a test double or an extension would send."""
    return dataclasses.dataclass(frozen=True)(type(f"Tagged{kind.__name__}", (kind,), {}))


def as_subclass(message):
    cls = subclass_of(type(message))
    return cls(**{field.name: getattr(message, field.name)
                  for field in dataclasses.fields(message)})


# -- the table itself ---------------------------------------------------------


def test_kind_map_matches_what_the_isinstance_ladder_would():
    class Base: ...
    class Derived(Base): ...
    class Other: ...
    class Both(Other, Base): ...
    kinds = KindMap((Base, Other))
    assert kinds[Base] is Base and kinds[Derived] is Base and kinds[Other] is Other
    assert kinds[Both] is Base          # first in ``kinds`` order, as a ladder would test
    assert kinds[int] is None and kinds[type(None)] is None
    assert set(kinds) == {Base, Derived, Other, Both, int, type(None)}   # resolved once, kept


@BACKENDS
def test_a_backend_handles_exactly_its_message_types(backend):
    assert set(HANDLER_OF[backend]) == set(backend.MESSAGE_TYPES) == set(backend.KINDS.kinds)


# -- replicas -------------------------------------------------------------------


@BACKENDS
def test_exact_types_and_their_subclasses_reach_the_same_handler(backend):
    replica, calls = recording(backend)
    for kind, handler in HANDLER_OF[backend].items():
        message = FIXTURES[kind]()
        derived = as_subclass(message)
        assert type(derived) is not kind and isinstance(derived, kind)
        replica.on_message("node-0", message)
        replica.on_message("node-0", derived)
        assert calls == [(handler, message), (handler, derived)], kind.__name__
        calls.clear()


@BACKENDS
def test_unknown_types_are_ignored(backend):
    replica, calls = recording(backend)
    foreign = [FIXTURES[kind]() for kind in (ZugBroadcast, StateRequest, Reply)]
    foreign += [FIXTURES[kind]() for kind in set().union(*map(set, HANDLER_OF.values()))
                if kind not in HANDLER_OF[backend]]
    for junk in [*foreign, object(), None, 7, b"bytes", "text", Commit]:
        replica.on_message("node-0", junk)
        assert replica.vote_is_redundant(junk) is False
    assert calls == []


def test_an_overridden_handler_is_honoured():
    seen = []

    class Eavesdropper(PbftReplica):
        def _on_prepare(self, prepare):
            seen.append(prepare)
            super()._on_prepare(prepare)

    replica = Eavesdropper(env=RecordingEnv(node_id="node-1"), config=CONFIG,
                           keypair=PAIRS["node-1"], keystore=KEYSTORE,
                           on_decide=lambda request, seq: None)
    prepare = Prepare(view=0, seq=1, digest=b"\x01" * 32,
                      replica_id="node-2").signed(PAIRS["node-2"])
    replica.on_message("node-2", prepare)
    replica.on_message("node-2", as_subclass(prepare))
    assert [type(message).__name__ for message in seen] == ["Prepare", "TaggedPrepare"]
    assert set(replica._instances[1].prepares) == {"node-2"}     # the real handler ran too


@pytest.mark.parametrize("backend, vote_kinds", [
    (PbftReplica, (Prepare, Commit)), (LinearBftReplica, (Vote, CommitCert)),
], ids=["PbftReplica", "LinearBftReplica"])
def test_vote_is_redundant_reads_subclasses_like_their_base(backend, vote_kinds):
    replica, _ = recording(backend)
    replica._next_exec = 10          # everything below seq 10 is executed
    replica.last_stable_seq = 8
    for kind in vote_kinds:
        old = FIXTURES[kind]()       # seq 9
        assert replica.vote_is_redundant(old) and replica.vote_is_redundant(as_subclass(old))
        fresh = dataclasses.replace(old, seq=11)
        assert not replica.vote_is_redundant(fresh)
        assert not replica.vote_is_redundant(as_subclass(fresh))
    checkpoint = FIXTURES[Checkpoint]()   # seq 8
    assert replica.vote_is_redundant(checkpoint)
    assert replica.vote_is_redundant(as_subclass(checkpoint))
    assert not replica.vote_is_redundant(dataclasses.replace(checkpoint, seq=9))
    assert not replica.vote_is_redundant(FIXTURES[PrePrepare]())


# -- nodes --------------------------------------------------------------------------


class Probe:
    """Stands in for a node's collaborators; records ``(method, src, message)``."""

    def __init__(self, calls, methods):
        for method in methods:
            setattr(self, method, lambda *args, method=method: calls.append((method, *args)))


def zugchain_node(replica_cls):
    node = ZugChainNode(env=RecordingEnv(node_id="node-1"), bft_config=CONFIG,
                        zug_config=ZugChainConfig(), keypair=PAIRS["node-1"],
                        keystore=KEYSTORE, nsdb=standard_jru_catalog(), replica_cls=replica_cls)
    calls = []
    node.replica.on_message = lambda *args: calls.append(("replica", *args))
    node.layer = Probe(calls, ["on_broadcast", "on_forward"])
    node.statesync = Probe(calls, ["handle_request", "handle_reply", "observe_checkpoint"])
    return node, calls


@BACKENDS
def test_the_node_routes_every_kind_to_its_owner(backend):
    node, calls = zugchain_node(backend)
    own = {ZugBroadcast: "on_broadcast", ZugForward: "on_forward",
           StateRequest: "handle_request", StateReply: "handle_reply"}
    for kind, method in own.items():
        for message in (FIXTURES[kind](), as_subclass(FIXTURES[kind]())):
            node.handle_message("node-0", message)
            assert calls == [(method, "node-0", message)], kind.__name__
            calls.clear()
    for kind in backend.MESSAGE_TYPES:
        for message in (FIXTURES[kind](), as_subclass(FIXTURES[kind]())):
            node.handle_message("node-0", message)
            expected = [("replica", "node-0", message)]
            if kind is Checkpoint:      # lag detection sees it first
                expected.insert(0, ("observe_checkpoint", "node-0", message))
            assert calls == expected, kind.__name__
            calls.clear()


@BACKENDS
def test_the_node_hands_everything_else_to_the_export_handler_if_it_has_one(backend):
    node, calls = zugchain_node(backend)
    other_backend = next(cls for cls in HANDLER_OF if cls is not backend)
    foreign = [FIXTURES[kind]() for kind in other_backend.MESSAGE_TYPES
               if kind not in backend.MESSAGE_TYPES]
    unknown = [*foreign, FIXTURES[Reply](), object()]
    for message in unknown:
        node.handle_message("node-0", message)           # no export handler: ignored
    assert calls == []
    node.export_handler = Probe(calls, ["handle_message"])
    for message in unknown:
        node.handle_message("node-0", message)
    assert calls == [("handle_message", "node-0", message) for message in unknown]


def test_the_baseline_node_routes_client_traffic_and_pbft_messages():
    node = BaselineNode(env=RecordingEnv(node_id="node-1"), bft_config=CONFIG,
                        keypair=PAIRS["node-1"], keystore=KEYSTORE,
                        nsdb=standard_jru_catalog())
    calls = []
    node.replica.on_message = lambda *args: calls.append(("replica", *args))
    node._on_client_request = lambda *args: calls.append(("client_request", *args))
    node.client.on_reply = lambda *args: calls.append(("reply", *args))
    expected = []
    for kind in (ClientRequestWrapper, Reply, PrePrepare, Prepare, Commit, Checkpoint,
                 ViewChange, NewView):
        for message in (FIXTURES[kind](), as_subclass(FIXTURES[kind]())):
            node.handle_message("node-0", message)
            expected.append({ClientRequestWrapper: ("client_request", "node-0", message),
                             Reply: ("reply", message)}.get(kind, ("replica", "node-0", message)))
    assert calls == expected
    calls.clear()
    # Gap-fill traffic was never part of the baseline's set; junk is ignored.
    for message in (FIXTURES[DecideFetch](), FIXTURES[DecideProof](), FIXTURES[ZugBroadcast](),
                    FIXTURES[Vote](), object(), None):
        node.handle_message("node-0", message)
    assert calls == []
