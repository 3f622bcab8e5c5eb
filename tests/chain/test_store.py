"""Block store tests, each run on the disk store and the in-memory store."""

import pytest

from repro.chain import BlockStore, Blockchain, build_block, genesis_block
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


def small_chain(n=3):
    chain = Blockchain()
    for sn in range(1, n + 1):
        chain.append(build_block(chain.head.header, [signed_request(sn)],
                                 timestamp_us=sn, last_sn=sn))
    return chain


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
