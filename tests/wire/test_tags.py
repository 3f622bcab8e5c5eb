"""Where a wire tag lives: on the class statement, registered at import.

Round-trips through the envelope for the core message types, the tag table's
spot checks, and which imports fill the registry in a fresh interpreter.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.bft.client import ClientRequestWrapper, Reply
from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.chain.block import Block, BlockHeader, build_block, genesis_block
from repro.core.messages import ZugBroadcast
from repro.crypto import HmacScheme
from repro.export.messages import (
    BlockFetch,
    BlockFetchReply,
    DcSync,
    DeleteAck,
    DeleteRequest,
    ReadReply,
    ReadRequest,
)
from repro.wire import Request, SignedRequest, decode_message, encode_message, registered_types

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")


def _request():
    return Request(payload=b"x" * 20, bus_cycle=3, recv_timestamp_us=77)


def _signed():
    return SignedRequest.create(_request(), "node-0", PAIR)


def _block():
    return build_block(genesis_block().header, [_signed()], timestamp_us=9, last_sn=1)


def _checkpoint():
    return Checkpoint(seq=1, block_height=1, block_hash=b"\x11" * 32,
                      state_digest=b"\x22" * 32, replica_id="node-0").signed(PAIR)


def _certificate():
    return CheckpointCertificate(seq=1, block_height=1, block_hash=b"\x11" * 32,
                                 state_digest=b"\x22" * 32,
                                 signatures=(_checkpoint(),))


SAMPLES = [
    _request(),
    _signed(),
    PrePrepare(view=0, seq=1, request=_signed(), primary_id="node-0").signed(PAIR),
    Prepare(view=0, seq=1, digest=b"\x11" * 32, replica_id="node-0").signed(PAIR),
    Commit(view=0, seq=1, digest=b"\x11" * 32, replica_id="node-0").signed(PAIR),
    _checkpoint(),
    ViewChange(new_view=1, last_stable_seq=0, stable_checkpoint_digest=b"\x00" * 32,
               prepared=(), replica_id="node-0").signed(PAIR),
    NewView(view=1, view_changes=(), preprepares=(), primary_id="node-0").signed(PAIR),
    _certificate(),
    ClientRequestWrapper(request=_signed()),
    Reply(seq=1, digest=b"\x11" * 32, client_id="node-0",
          replica_id="node-0").signed(PAIR),
    ZugBroadcast(request=_signed()),
    genesis_block().header,
    _block(),
    ReadRequest(dc_id="dc-0", last_sn=0, full_from="node-0").signed(PAIR),
    ReadReply(replica_id="node-0", checkpoint=_certificate(), blocks=(_block(),)).signed(PAIR),
    DcSync(dc_id="dc-0", checkpoint=_certificate(), blocks=()).signed(PAIR),
    DeleteRequest(dc_id="dc-0", upto_sn=1, block_height=1,
                  block_hash=b"\x11" * 32).signed(PAIR),
    DeleteAck(replica_id="node-0", block_height=1, block_hash=b"\x11" * 32).signed(PAIR),
    BlockFetch(dc_id="dc-0", first_height=1, last_height=2).signed(PAIR),
    BlockFetchReply(replica_id="node-0", blocks=()).signed(PAIR),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_registry_roundtrip(message):
    encoded = encode_message(message)
    decoded, consumed = decode_message(encoded)
    assert consumed == len(encoded)
    assert type(decoded) is type(message)
    assert decoded.encode() == message.encode()


def test_all_tags_unique_and_stable():
    registered = registered_types()
    assert len(set(registered.values())) == len(registered)
    # Spot-check stability of a few assignments (frozen API).
    assert registered[1] is Request
    assert registered[10] is PrePrepare
    assert registered[41] is Block


def test_stream_of_messages_decodes_sequentially():
    stream = b"".join(encode_message(m) for m in SAMPLES[:5])
    offset = 0
    decoded = []
    while offset < len(stream):
        message, consumed = decode_message(stream[offset:])
        decoded.append(message)
        offset += consumed
    assert len(decoded) == 5


SRC = str(pathlib.Path(repro.__file__).parent.parent)

EVERY_MODULE = """
import importlib, pkgutil, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):
        importlib.import_module(module.name)
"""


def tags_after(imports: str) -> list[int]:
    """The registered tags after running only ``imports``, in a fresh interpreter."""
    code = imports + "\nfrom repro.wire import registered_types\nprint(sorted(registered_types()))\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


@pytest.fixture(scope="module")
def every_tag() -> list[int]:
    tags = tags_after(EVERY_MODULE)
    assert len(tags) == 31
    return tags


@pytest.mark.parametrize("module", [
    "repro.runtime.multiprocess",    # decodes every frame a peer process sends
    "repro.runtime.asyncio_runtime",  # decodes every frame off a socket
    "repro.wire.tags",               # what perfbench imports to list every type
])
def test_importing_one_of_these_alone_loads_every_tag(module, every_tag):
    assert tags_after(f"import {module}") == every_tag
