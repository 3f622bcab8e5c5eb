"""Block store tests, each run on the disk store and the in-memory store."""

import pytest

from repro.chain import BlockStore, Blockchain, PruneCertificate, build_block, genesis_block
from repro.chain.store import MemoryBlockStore
from repro.crypto import HmacScheme
from repro.util import ChainError
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")


@pytest.fixture
def stores(tmp_path):
    """Both stores: they differ only in where the bytes live."""
    return [BlockStore(tmp_path), MemoryBlockStore()]


def flip_last_byte(store, name):
    """Corrupt one stored entry (a file for the disk store) in place."""
    raw = bytearray(store._get(name))
    raw[-1] ^= 0xFF
    store._put(name, bytes(raw))


def signed_request(cycle):
    request = Request(payload=b"p", bus_cycle=cycle, recv_timestamp_us=cycle)
    return SignedRequest.create(request, "node-0", PAIR)


def small_chain(n=3, store=None):
    chain = Blockchain(store=store)
    for sn in range(1, n + 1):
        chain.append(build_block(chain.head.header, [signed_request(sn)],
                                 timestamp_us=sn, last_sn=sn))
    return chain


def cert_for(chain, height):
    return PruneCertificate(base_height=height,
                            base_block_hash=chain.block_at(height).block_hash,
                            delete_signatures={"dc-0": b"\x01" * 64, "dc-1": b"\x02" * 64})


def assert_store_equals_chain(store, chain):
    """The store holds the chain's blocks from ``max(1, base)`` to head, and its certificate."""
    heights = list(range(max(1, chain.base_height), chain.height + 1))
    assert store.heights() == heights
    assert [store.read(height) for height in heights] == [
        chain.block_at(height) for height in heights]
    assert store.read_prune_certificate() == chain.prune_certificate


def test_write_read_roundtrip(stores):
    chain = small_chain()
    for store in stores:
        for height in range(0, 4):
            store.write(chain.block_at(height))
        assert store.read(2) == chain.block_at(2)
        assert store.heights() == [0, 1, 2, 3]


def test_read_missing_raises(stores):
    for store in stores:
        with pytest.raises(ChainError):
            store.read(7)


def test_corrupted_file_rejected(stores):
    for store in stores:
        store.write(genesis_block())
        flip_last_byte(store, f"block-{0:012d}.zc")
        with pytest.raises(Exception):
            store.read(0)


def test_delete(stores):
    for store in stores:
        store.write(genesis_block())
        assert store.delete(0)
        assert not store.delete(0)
        assert store.heights() == []


def test_load_all_reconstructs_chain(stores):
    chain = small_chain()
    for store in stores:
        for height in range(0, 4):
            store.write(chain.block_at(height))
        rebuilt = Blockchain.from_blocks(store.load_all())
        assert rebuilt.height == 3


def test_checkpoint_round_trip(stores):
    for store in stores:
        assert store.read_checkpoint() is None
        store.write_checkpoint(b"first certificate")
        store.write_checkpoint(b"stable checkpoint certificate")
        assert store.read_checkpoint() == b"stable checkpoint certificate"
        # The checkpoint is not a block.
        assert store.heights() == []


def test_corrupted_checkpoint_rejected(stores):
    for store in stores:
        store.write_checkpoint(b"stable checkpoint certificate")
        flip_last_byte(store, "checkpoint.zc")
        with pytest.raises(ChainError, match="checksum"):
            store.read_checkpoint()


def test_store_follows_append_prune_and_adopt(stores):
    for store in stores:
        chain = small_chain(6, store=store)
        assert_store_equals_chain(store, chain)
        chain.prune_below(3, cert_for(chain, 3))
        assert_store_equals_chain(store, chain)
        # A peer that pruned past our head transfers its chain (scenario ii).
        peer = small_chain(12)
        peer.prune_below(9, cert_for(peer, 9))
        chain.adopt(Blockchain.from_blocks(peer.blocks_in_range(9, 12),
                                           prune_certificate=peer.prune_certificate))
        assert chain.base_height == 9
        assert_store_equals_chain(store, chain)
        # And back to an unpruned chain: the stored certificate goes too.
        chain.adopt(small_chain(4))
        assert_store_equals_chain(store, chain)


def test_chain_rebuilt_from_pruned_store_starts_at_its_base(stores):
    for store in stores:
        chain = small_chain(6, store=store)
        chain.prune_below(4, cert_for(chain, 4))
        rebuilt = Blockchain.from_store(store)
        rebuilt.verify()
        assert (rebuilt.base_height, rebuilt.height) == (4, 6)
        assert rebuilt.prune_certificate == chain.prune_certificate
        assert rebuilt.blocks_in_range(4, 6) == chain.blocks_in_range(4, 6)
        assert rebuilt.store is store


def test_rebuild_keeps_the_contiguous_run_and_drops_the_rest(stores):
    for store in stores:
        chain = small_chain(5)
        for height in (1, 2, 4, 5):  # height 3 never reached the store
            store.write(chain.block_at(height))
        rebuilt = Blockchain.from_store(store)
        assert rebuilt.height == 2
        assert_store_equals_chain(store, rebuilt)


def test_headers_only_fallback_keeps_bodies_in_the_store(stores):
    for store in stores:
        chain = small_chain(6, store=store)
        assert chain.drop_bodies_below(5) == 4
        assert not chain.body_available(2)
        assert [store.read(height) for height in range(1, 7)] == chain.blocks_in_range(1, 6)
