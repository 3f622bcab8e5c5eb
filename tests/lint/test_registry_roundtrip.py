"""Dynamic companion to PROTO001: every tagged type must round-trip.

The static rule proves every message class declares a wire tag on its
class statement; this test proves every tagged class actually survives
``encode_message``/``decode_message``.  A sample factory per type keeps
the check honest: tagging a new message without adding a sample here
fails loudly.  A tag registers only when its module loads, so every
``repro`` module is imported first: a tagged class in a module nothing
else here imports cannot escape the check.  ``CANONICAL_TABLE`` pins each
tag's owner apart from the golden bytes.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.client import ClientRequestWrapper, Reply
from repro.bft.linear import CommitCert, Vote
from repro.bft.messages import (
    Checkpoint,
    Commit,
    DecideFetch,
    DecideProof,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    ViewChange,
)
from repro.chain.block import Block, BlockHeader, build_block, genesis_block
from repro.core.messages import ZugBroadcast, ZugForward
from repro.core.statesync import StateReply, StateRequest
from repro.crypto import HmacScheme
from repro.export.messages import (
    BlockFetch,
    BlockFetchReply,
    DcSync,
    DeleteAck,
    DeleteRequest,
    ReadReply,
    ReadRequest,
    SessionResume,
)
from repro.obs.causal import CausalContext
from repro.wire import Request, SignedRequest, decode_message, encode_message, registered_types

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith(".__main__"):
        importlib.import_module(_module.name)

#: Every wire tag and the class that owns it.  Tags are stable API: never
#: renumber, only append.
CANONICAL_TABLE = {
    1: "repro.wire.messages.Request",
    2: "repro.wire.messages.SignedRequest",
    10: "repro.bft.messages.PrePrepare",
    11: "repro.bft.messages.Prepare",
    12: "repro.bft.messages.Commit",
    13: "repro.bft.messages.Checkpoint",
    14: "repro.bft.messages.ViewChange",
    15: "repro.bft.messages.NewView",
    16: "repro.bft.checkpoint.CheckpointCertificate",
    17: "repro.bft.messages.PreparedProof",
    18: "repro.bft.linear.Vote",
    19: "repro.bft.linear.CommitCert",
    20: "repro.bft.client.ClientRequestWrapper",
    21: "repro.bft.client.Reply",
    30: "repro.core.messages.ZugBroadcast",
    31: "repro.core.messages.ZugForward",
    32: "repro.core.statesync.StateRequest",
    33: "repro.core.statesync.StateReply",
    40: "repro.chain.block.BlockHeader",
    41: "repro.chain.block.Block",
    50: "repro.export.messages.ReadRequest",
    51: "repro.export.messages.ReadReply",
    52: "repro.export.messages.DcSync",
    53: "repro.export.messages.DeleteRequest",
    54: "repro.export.messages.DeleteAck",
    55: "repro.export.messages.BlockFetch",
    56: "repro.export.messages.BlockFetchReply",
    57: "repro.export.messages.SessionResume",
    58: "repro.bft.messages.DecideFetch",
    59: "repro.bft.messages.DecideProof",
    60: "repro.obs.causal.CausalContext",
}

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")
DC_PAIR = SCHEME.derive_keypair(b"dc-0")


def _request():
    return Request(payload=b"signals" * 4, bus_cycle=7, recv_timestamp_us=12_500)


def _signed():
    return SignedRequest.create(_request(), "node-0", PAIR)


def _preprepare():
    return PrePrepare(view=0, seq=1, request=_signed(), primary_id="node-0").signed(PAIR)


def _checkpoint():
    return Checkpoint(seq=4, block_height=1, block_hash=b"\x11" * 32,
                      state_digest=b"\x22" * 32, replica_id="node-0").signed(PAIR)


def _certificate():
    return CheckpointCertificate(seq=4, block_height=1, block_hash=b"\x11" * 32,
                                 state_digest=b"\x22" * 32,
                                 signatures=(_checkpoint(),))


def _block():
    return build_block(genesis_block().header, [_signed()], timestamp_us=9, last_sn=1)


def _prepared_proof():
    return PreparedProof(view=0, seq=1, digest=_signed().digest, request=_signed())


def _vote():
    return Vote(view=0, seq=1, digest=b"\x44" * 32, replica_id="node-1").signed(PAIR)


def _viewchange():
    return ViewChange(new_view=1, last_stable_seq=0,
                      stable_checkpoint_digest=b"\x33" * 32,
                      prepared=(_prepared_proof(),), replica_id="node-1").signed(PAIR)


SAMPLES = {
    Request: _request,
    SignedRequest: _signed,
    PrePrepare: _preprepare,
    Prepare: lambda: Prepare(view=0, seq=1, digest=b"\x44" * 32, replica_id="node-1").signed(PAIR),
    Commit: lambda: Commit(view=0, seq=1, digest=b"\x44" * 32, replica_id="node-2").signed(PAIR),
    Checkpoint: _checkpoint,
    PreparedProof: _prepared_proof,
    ViewChange: _viewchange,
    NewView: lambda: NewView(view=1, view_changes=(_viewchange(),),
                             preprepares=(_preprepare(),), primary_id="node-1").signed(PAIR),
    CheckpointCertificate: _certificate,
    Vote: _vote,
    CommitCert: lambda: CommitCert(view=0, seq=1, digest=b"\x44" * 32, votes=(_vote(),)),
    ClientRequestWrapper: lambda: ClientRequestWrapper(request=_signed()),
    Reply: lambda: Reply(seq=1, digest=b"\x55" * 32, client_id="client-0",
                         replica_id="node-0").signed(PAIR),
    ZugBroadcast: lambda: ZugBroadcast(request=_signed()),
    ZugForward: lambda: ZugForward(request=_signed(), forwarder_id="node-3"),
    StateRequest: lambda: StateRequest(requester_id="node-2", have_height=3).signed(PAIR),
    StateReply: lambda: StateReply(replica_id="node-0", checkpoint=_certificate(),
                                   blocks=(_block(),), prune_base_height=0,
                                   prune_base_hash=genesis_block().block_hash,
                                   prune_signatures=(("dc-0", b"\x66" * 64),)).signed(PAIR),
    BlockHeader: lambda: _block().header,
    Block: _block,
    ReadRequest: lambda: ReadRequest(dc_id="dc-0", last_sn=0, full_from="node-0").signed(DC_PAIR),
    ReadReply: lambda: ReadReply(replica_id="node-0", checkpoint=_certificate(),
                                 blocks=(_block(),)).signed(PAIR),
    DcSync: lambda: DcSync(dc_id="dc-0", checkpoint=_certificate(),
                           blocks=(_block(),)).signed(DC_PAIR),
    DeleteRequest: lambda: DeleteRequest(dc_id="dc-0", upto_sn=1, block_height=1,
                                         block_hash=b"\x77" * 32).signed(DC_PAIR),
    DeleteAck: lambda: DeleteAck(replica_id="node-0", block_height=1,
                                 block_hash=b"\x77" * 32).signed(PAIR),
    BlockFetch: lambda: BlockFetch(dc_id="dc-0", first_height=1, last_height=2).signed(DC_PAIR),
    BlockFetchReply: lambda: BlockFetchReply(replica_id="node-0", blocks=(_block(),)).signed(PAIR),
    SessionResume: lambda: SessionResume(replica_id="node-0", chain_height=2,
                                         head_hash=b"\x88" * 32, incarnation=1).signed(PAIR),
    DecideFetch: lambda: DecideFetch(requester_id="node-2", first_seq=3,
                                     last_seq=7).signed(PAIR),
    DecideProof: lambda: DecideProof(
        replica_id="node-0", preprepare=_preprepare(),
        commits=(Commit(view=0, seq=1, digest=_signed().digest,
                        replica_id="node-2").signed(PAIR),),
    ).signed(PAIR),
    CausalContext: lambda: CausalContext(origin="node-0", lamport=3, parent=-1),
}


def test_every_registered_type_has_a_sample():
    missing = [cls.__name__ for cls in registered_types().values() if cls not in SAMPLES]
    assert not missing, (
        f"registered message types without round-trip samples: {missing}; "
        "add a factory to SAMPLES in this file"
    )


@pytest.mark.parametrize(
    "tag,cls",
    sorted(registered_types().items()),
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_registered_type_roundtrips_through_envelope(tag, cls):
    message = SAMPLES[cls]()
    assert isinstance(message, cls)
    encoded = encode_message(message)
    decoded, consumed = decode_message(encoded)
    assert consumed == len(encoded)
    assert type(decoded) is cls
    assert decoded == message
    assert decoded.encode() == message.encode()


def test_registered_tags_match_canonical_table():
    owners = {tag: f"{cls.__module__}.{cls.__qualname__}"
              for tag, cls in registered_types().items()}
    assert owners == CANONICAL_TABLE
