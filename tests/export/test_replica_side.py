"""Replica-side export handler tests, including §III-D error scenarios."""

from repro.bft import BftConfig
from repro.bft.env import RecordingEnv
from repro.bft.messages import Checkpoint, checkpoint_state_digest
from repro.bft.checkpoint import CheckpointCertificate
from repro.chain import Blockchain, build_block
from repro.core.statesync import StateReply, StateSync
from repro.crypto import HmacScheme, KeyStore
from repro.export import DeleteAck, DeleteRequest, ExportConfig, ExportHandler, ReadReply, ReadRequest
from repro.export.messages import BlockFetch, BlockFetchReply
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
IDS = ["node-0", "node-1", "node-2", "node-3", "dc-0", "dc-1", "dc-2"]
KEYPAIRS = {i: SCHEME.derive_keypair(i.encode()) for i in IDS}
KEYSTORE = KeyStore(scheme=SCHEME)
for _i, _p in KEYPAIRS.items():
    KEYSTORE.register(_i, _p.public)
CONFIG = BftConfig(replica_ids=("node-0", "node-1", "node-2", "node-3"))


def grow_chain(n_blocks, requests_per_block=2):
    chain = Blockchain()
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


def make_handler(n_blocks=5, delete_quorum=2, node_id="node-0"):
    chain, certs = grow_chain(n_blocks)
    env = RecordingEnv(node_id=node_id)
    handler = ExportHandler(
        env=env,
        config=ExportConfig(delete_quorum=delete_quorum),
        keypair=KEYPAIRS[node_id],
        keystore=KEYSTORE,
        chain=chain,
        latest_checkpoint=lambda: certs[chain.height] if chain.height in certs else None,
    )
    return env, handler, chain, certs


def delete_for(chain, height, dc_id):
    block = chain.block_at(height)
    return DeleteRequest(dc_id=dc_id, upto_sn=block.last_sn, block_height=height,
                         block_hash=block.block_hash).signed(KEYPAIRS[dc_id])


def test_read_returns_checkpoint_only_for_non_designated():
    env, handler, chain, certs = make_handler()
    request = ReadRequest(dc_id="dc-0", last_sn=0, full_from="node-1").signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", request)
    replies = env.sent_of_type(ReadReply)
    assert len(replies) == 1
    dst, reply = replies[0]
    assert dst == "dc-0"
    assert reply.checkpoint is not None
    assert reply.blocks == ()


def test_read_returns_full_blocks_when_designated():
    env, handler, chain, certs = make_handler(n_blocks=4)
    request = ReadRequest(dc_id="dc-0", last_sn=0, full_from="node-0").signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", request)
    _, reply = env.sent_of_type(ReadReply)[0]
    assert [b.height for b in reply.blocks] == [1, 2, 3, 4]


def test_read_serves_only_blocks_after_last_sn():
    env, handler, chain, certs = make_handler(n_blocks=4)
    # Blocks hold 2 requests each; last_sn=4 covers blocks 1-2.
    request = ReadRequest(dc_id="dc-0", last_sn=4, full_from="node-0").signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", request)
    _, reply = env.sent_of_type(ReadReply)[0]
    assert [b.height for b in reply.blocks] == [3, 4]


def test_forged_read_ignored():
    env, handler, _, _ = make_handler()
    forged = ReadRequest(dc_id="dc-0", last_sn=0, full_from="node-0",
                         signature=b"\x00" * 64)
    handler.handle_message("dc-0", forged)
    assert env.sent == []


def test_delete_needs_quorum_of_datacenters():
    # Error scenario (iii): not enough deletes -> not executed.
    env, handler, chain, _ = make_handler(delete_quorum=2)
    handler.handle_message("dc-0", delete_for(chain, 3, "dc-0"))
    assert chain.base_height == 0
    handler.handle_message("dc-1", delete_for(chain, 3, "dc-1"))
    assert chain.base_height == 3
    acks = env.sent_of_type(DeleteAck)
    assert {dst for dst, _ in acks} == {"dc-0", "dc-1"}


def test_duplicate_delete_from_same_dc_does_not_count_twice():
    env, handler, chain, _ = make_handler(delete_quorum=2)
    handler.handle_message("dc-0", delete_for(chain, 3, "dc-0"))
    handler.handle_message("dc-0", delete_for(chain, 3, "dc-0"))
    assert chain.base_height == 0


def test_delete_with_wrong_hash_rejected():
    env, handler, chain, _ = make_handler(delete_quorum=1)
    bad = DeleteRequest(dc_id="dc-0", upto_sn=6, block_height=3,
                        block_hash=b"\x99" * 32).signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", bad)
    assert chain.base_height == 0
    assert handler.stats.deletes_rejected == 1


def test_delete_before_block_created_is_held():
    # Error scenario (i): the delete waits for the block to exist.
    env, handler, chain, certs = make_handler(n_blocks=3, delete_quorum=1)
    future_requests = []
    seq = chain.head.last_sn
    for _ in range(2):
        seq += 1
        req = Request(payload=b"f%d" % seq, bus_cycle=seq, recv_timestamp_us=seq)
        future_requests.append(SignedRequest.create(req, "node-0", KEYPAIRS["node-0"]))
    future_block = build_block(chain.head.header, future_requests,
                               timestamp_us=seq, last_sn=seq)
    early = DeleteRequest(dc_id="dc-0", upto_sn=seq, block_height=future_block.height,
                          block_hash=future_block.block_hash).signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", early)
    assert chain.base_height == 0
    assert handler.stats.deletes_held == 1
    # The block is created later; the held delete now executes.
    chain.append(future_block)
    handler.on_block_created(future_block)
    assert chain.base_height == future_block.height


def test_fetch_serves_requested_range():
    env, handler, chain, _ = make_handler(n_blocks=5)
    fetch = BlockFetch(dc_id="dc-0", first_height=2, last_height=4).signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", fetch)
    _, reply = env.sent_of_type(BlockFetchReply)[0]
    assert [b.height for b in reply.blocks] == [2, 3, 4]


def test_fetch_clamps_to_available_range():
    env, handler, chain, _ = make_handler(n_blocks=3)
    fetch = BlockFetch(dc_id="dc-0", first_height=0, last_height=99).signed(KEYPAIRS["dc-0"])
    handler.handle_message("dc-0", fetch)
    _, reply = env.sent_of_type(BlockFetchReply)[0]
    assert [b.height for b in reply.blocks] == [0, 1, 2, 3]


class _Replica:
    """What StateSync's reply path asks of a replica."""

    view = 0

    def fast_forward(self, certificate):
        self.fast_forwarded = certificate

    def adopt_view(self, view):
        pass


def state_reply(checkpoint, blocks, prune_certificate=None, responder="node-1"):
    """A signed StateReply carrying ``blocks`` under ``checkpoint``."""
    return StateReply(
        replica_id=responder, checkpoint=checkpoint, blocks=tuple(blocks),
        prune_base_height=prune_certificate.base_height if prune_certificate else 0,
        prune_base_hash=prune_certificate.base_block_hash if prune_certificate else b"",
        prune_signatures=(tuple(prune_certificate.delete_signatures.items())
                          if prune_certificate else ()),
    ).signed(KEYPAIRS[responder])


def fresh_statesync():
    """A new node-3's StateSync over an empty chain (error scenario ii)."""
    return StateSync(env=RecordingEnv(node_id="node-3"), bft_config=CONFIG,
                     keypair=KEYPAIRS["node-3"], keystore=KEYSTORE,
                     chain=Blockchain(), replica=_Replica())


def test_state_reply_adopts_checkpoint_verified_segment():
    # Error scenario (ii): transferring a checkpoint to another replica.
    _, _, chain, certs = make_handler(n_blocks=4)
    sync = fresh_statesync()
    blocks = [chain.block_at(h) for h in range(0, 5)]
    assert sync.handle_reply("node-1", state_reply(certs[4], blocks))
    assert sync.chain.height == 4
    assert sync.replica.fast_forwarded == certs[4]


def test_state_reply_missing_checkpoint_head_leaves_chain_untouched():
    _, _, chain, certs = make_handler(n_blocks=4)
    sync = fresh_statesync()
    blocks = [chain.block_at(h) for h in range(0, 4)]  # missing the head
    assert not sync.handle_reply("node-1", state_reply(certs[4], blocks))
    assert sync.stats.rejected == 1
    assert sync.chain.height == 0 and len(sync.chain) == 1


def test_state_reply_of_uncertified_blocks_appends_none():
    # Blocks that link to our head but not to the checkpoint are forged.
    _, _, chain, certs = make_handler(n_blocks=4)
    sync = fresh_statesync()
    forged, head = [], sync.chain.head.header
    for sn in (1, 2, 3, 4):
        request = Request(payload=b"forged", bus_cycle=sn, recv_timestamp_us=sn)
        block = build_block(head, [SignedRequest.create(request, "node-1", KEYPAIRS["node-1"])],
                            timestamp_us=sn, last_sn=sn)
        forged.append(block)
        head = block.header
    assert not sync.handle_reply("node-1", state_reply(certs[4], forged))
    assert sync.chain.height == 0


def test_pruned_state_reply_requires_delete_certificate():
    _, handler, chain, certs = make_handler(n_blocks=4, delete_quorum=1)
    handler.handle_message("dc-0", delete_for(chain, 2, "dc-0"))
    assert chain.base_height == 2
    blocks = [chain.block_at(h) for h in range(2, 5)]
    sync = fresh_statesync()
    assert not sync.handle_reply("node-1", state_reply(certs[4], blocks))
    assert sync.chain.height == 0
    assert sync.handle_reply(
        "node-1", state_reply(certs[4], blocks, chain.prune_certificate))
    assert sync.chain.base_height == 2
    assert sync.chain.prune_certificate == chain.prune_certificate


def test_emergency_header_prune():
    # Error scenario (v): memory exhaustion fallback keeps headers.
    env, handler, chain, _ = make_handler(n_blocks=20)
    handler.config = ExportConfig(emergency_headers_keep=5)
    affected = handler.emergency_header_prune()
    assert affected > 0
    chain.verify()  # chain integrity is preserved via the retained hashes
    assert not chain.body_available(3)
    assert chain.body_available(20)
