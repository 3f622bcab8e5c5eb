"""Regression tests for SM006: Byzantine input must not wedge a data center.

The sm-stage self-run flagged two :class:`ChainError` escapes out of
``DataCenter.handle_message``: correctly *signed* replies can still carry
hostile block *contents* (bad payload roots, a verified head that
contradicts the checkpoint, fetch rounds that never produce the missing
blocks).  These pin the fix: the round aborts and is counted, the data
center stays alive and can start the next round.
"""

import dataclasses
import random

import pytest

from repro.bft import BftConfig
from repro.bft.env import RecordingEnv
from repro.bft.messages import Checkpoint, checkpoint_state_digest
from repro.bft.checkpoint import CheckpointCertificate
from repro.chain import Blockchain, build_block
from repro.crypto import HmacScheme, KeyStore
from repro.export.datacenter import DataCenter, DataCenterConfig
from repro.export.messages import BlockFetch, BlockFetchReply, DcSync, ReadReply
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
IDS = ["node-0", "node-1", "node-2", "node-3", "dc-0", "dc-1"]
KEYPAIRS = {i: SCHEME.derive_keypair(i.encode()) for i in IDS}
KEYSTORE = KeyStore(scheme=SCHEME)
for _i, _p in KEYPAIRS.items():
    KEYSTORE.register(_i, _p.public)
BFT = BftConfig(replica_ids=("node-0", "node-1", "node-2", "node-3"))
REPLICAS = ("node-0", "node-1", "node-2", "node-3")


def grow_chain(n_blocks, requests_per_block=2):
    chain = Blockchain(chain_id="zugchain")
    certs = {}
    seq = 0
    for height in range(1, n_blocks + 1):
        requests = []
        for _ in range(requests_per_block):
            seq += 1
            req = Request(payload=b"p%d" % seq, bus_cycle=seq, recv_timestamp_us=seq)
            requests.append(SignedRequest.create(req, "node-0", KEYPAIRS["node-0"]))
        block = build_block(chain.head.header, requests, timestamp_us=seq, last_sn=seq)
        chain.append(block)
        digest = checkpoint_state_digest(block.block_hash, height, [])
        sigs = tuple(
            Checkpoint(seq=seq, block_height=height, block_hash=block.block_hash,
                       state_digest=digest, replica_id=i).signed(KEYPAIRS[i])
            for i in ("node-0", "node-1", "node-2")
        )
        certs[height] = CheckpointCertificate(
            seq=seq, block_height=height, block_hash=block.block_hash,
            state_digest=digest, signatures=sigs,
        )
    return chain, certs


def make_dc(dc_id="dc-0", peers=()):
    env = RecordingEnv(node_id=dc_id)
    dc = DataCenter(
        env=env,
        config=DataCenterConfig(dc_id=dc_id, replica_ids=REPLICAS, peer_dc_ids=peers),
        bft_config=BFT,
        keypair=KEYPAIRS[dc_id],
        keystore=KEYSTORE,
        rng=random.Random(0),
    )
    return env, dc


def reply(replica_id, cert, blocks=()):
    return ReadReply(replica_id=replica_id, checkpoint=cert,
                     blocks=tuple(blocks)).signed(KEYPAIRS[replica_id])


def drop_request(block):
    """Tamper a block: its header (and hash) no longer match its payload."""
    return dataclasses.replace(block, requests=block.requests[:-1])


def feed_read_quorum(dc, cert, full_blocks):
    dc.start_export(full_from="node-0")
    dc.handle_message("node-0", reply("node-0", cert, full_blocks))
    dc.handle_message("node-1", reply("node-1", cert))
    dc.handle_message("node-2", reply("node-2", cert))


def test_tampered_block_aborts_round_instead_of_crashing():
    chain, certs = grow_chain(3)
    blocks = [chain.block_at(h) for h in (1, 2, 3)]
    blocks[2] = drop_request(blocks[2])
    env, dc = make_dc()
    feed_read_quorum(dc, certs[3], blocks)  # must not raise
    assert dc.stats.rounds_aborted == 1
    assert dc.current_round is None
    assert dc.archive.height <= 2  # the tampered block never landed
    # The data center survives: a fresh round starts cleanly.
    dc.start_export(full_from="node-0")


def test_head_checkpoint_mismatch_aborts_round():
    chain, certs = grow_chain(3)
    other_chain, _ = grow_chain(3, requests_per_block=3)
    impostor_blocks = [other_chain.block_at(h) for h in (1, 2, 3)]
    env, dc = make_dc()
    # Internally consistent blocks from the wrong history, with a valid
    # checkpoint for the real one: the verified head contradicts it.
    feed_read_quorum(dc, certs[3], impostor_blocks)
    assert dc.stats.rounds_aborted == 1
    assert dc.current_round is None


def test_fetch_round_exhaustion_aborts_round():
    chain, certs = grow_chain(3)
    env, dc = make_dc()
    # Designated replica serves only block 1; blocks 2-3 stay missing.
    feed_read_quorum(dc, certs[3], [chain.block_at(1)])
    assert env.sent_of_type(BlockFetch), "expected a fetch for the missing blocks"
    empty = BlockFetchReply(replica_id="node-1", blocks=()).signed(KEYPAIRS["node-1"])
    for _ in range(4):  # 3 fruitless rounds exhaust the budget; 4th is a no-op
        dc.handle_message("node-1", empty)
    assert dc.stats.rounds_aborted == 1
    assert dc.current_round is None


def test_byzantine_peer_sync_blocks_rejected_not_fatal():
    chain, certs = grow_chain(2)
    env, dc = make_dc()
    garbage = DcSync(
        dc_id="dc-1", checkpoint=certs[2],
        blocks=(drop_request(chain.block_at(1)), chain.block_at(2)),
    ).signed(KEYPAIRS["dc-1"])
    dc.handle_message("dc-1", garbage)  # must not raise
    assert dc.stats.sync_blocks_rejected == 1
    assert dc.archive.height == 0
    assert dc.last_exported_sn == 0


def test_valid_peer_sync_still_applies():
    chain, certs = grow_chain(2)
    env, dc = make_dc()
    sync = DcSync(
        dc_id="dc-1", checkpoint=certs[2],
        blocks=(chain.block_at(1), chain.block_at(2)),
    ).signed(KEYPAIRS["dc-1"])
    dc.handle_message("dc-1", sync)
    assert dc.archive.height == 2
    assert dc.stats.sync_blocks_rejected == 0
    assert dc.last_exported_sn == certs[2].seq
