"""Blockchain append/validate/prune tests."""

import pytest

from repro.chain import Blockchain, PruneCertificate, build_block
from repro.chain.block import Block, BlockHeader
from repro.crypto import HmacScheme
from repro.util import ChainError
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")


def signed_request(cycle):
    request = Request(payload=b"p%d" % cycle, bus_cycle=cycle, recv_timestamp_us=cycle)
    return SignedRequest.create(request, "node-0", PAIR)


def grow(chain, count, start_sn=1):
    sn = start_sn
    for _ in range(count):
        block = build_block(chain.head.header, [signed_request(sn)],
                            timestamp_us=sn * 1000, last_sn=sn)
        chain.append(block)
        sn += 1
    return chain


def cert_for(chain, height, signers=("dc-a", "dc-b")):
    return PruneCertificate(
        base_height=height,
        base_block_hash=chain.block_at(height).block_hash,
        delete_signatures={name: b"\x01" * 64 for name in signers},
    )


def test_new_chain_has_genesis():
    chain = Blockchain()
    assert chain.height == 0
    assert chain.base_height == 0
    assert len(chain) == 1


def test_append_and_read():
    chain = grow(Blockchain(), 5)
    assert chain.height == 5
    assert chain.block_at(3).height == 3
    assert [b.height for b in chain.blocks_in_range(2, 4)] == [2, 3, 4]
    chain.verify()


def test_append_wrong_height_rejected():
    chain = grow(Blockchain(), 2)
    orphan = build_block(chain.block_at(1).header, [signed_request(99)],
                         timestamp_us=1, last_sn=99)
    with pytest.raises(ChainError):
        chain.append(orphan)


def test_append_broken_link_rejected():
    chain = grow(Blockchain(), 1)
    bad_header = BlockHeader(
        height=2, prev_hash=b"\xde" * 32,
        payload_root=chain.head.header.payload_root,
        timestamp_us=5, request_count=1, last_sn=9,
    )
    with pytest.raises(ChainError):
        chain.append(Block(header=bad_header, requests=chain.head.requests))


def test_append_bad_payload_rejected():
    chain = grow(Blockchain(), 1)
    good = build_block(chain.head.header, [signed_request(7)], timestamp_us=1, last_sn=7)
    forged = Block(header=good.header, requests=(signed_request(8),))
    with pytest.raises(ChainError):
        chain.append(forged)


def test_prune_keeps_base_block():
    chain = grow(Blockchain(), 6)
    removed = chain.prune_below(4, cert_for(chain, 4))
    assert [b.height for b in removed] == [0, 1, 2, 3]
    assert chain.base_height == 4
    assert chain.height == 6
    chain.verify()


def test_prune_requires_matching_certificate():
    chain = grow(Blockchain(), 4)
    bad = PruneCertificate(base_height=2, base_block_hash=b"\x00" * 32,
                           delete_signatures={"dc": b"\x01" * 64})
    with pytest.raises(ChainError):
        chain.prune_below(2, bad)


def test_prune_unknown_height_rejected():
    chain = grow(Blockchain(), 2)
    with pytest.raises(ChainError):
        chain.prune_below(9, cert_for(chain, 2))


def test_pruned_chain_without_certificate_fails_verify():
    chain = grow(Blockchain(), 4)
    chain.prune_below(2, cert_for(chain, 2))
    chain.prune_certificate = None
    assert not chain.is_valid()


def test_append_continues_after_prune():
    chain = grow(Blockchain(), 4)
    chain.prune_below(3, cert_for(chain, 3))
    grow(chain, 2, start_sn=10)
    assert chain.height == 6
    chain.verify()


def test_headers_only_fallback():
    chain = grow(Blockchain(), 5)
    affected = chain.drop_bodies_below(4)
    assert affected == 3  # heights 1..3 (base 0 kept intact)
    assert not chain.body_available(2)
    assert chain.body_available(4)
    chain.verify()  # hash links remain verifiable


def test_total_size_shrinks_with_dropped_bodies():
    chain = grow(Blockchain(), 5)
    before = chain.total_size_bytes()
    chain.drop_bodies_below(5)
    assert chain.total_size_bytes() < before


def recounted(chain):
    """What total_size_bytes() was before it became a running total."""
    return sum(chain.block_at(height).encoded_size()
               for height in range(chain.base_height, chain.height + 1)
               if chain.body_available(height))


def test_running_total_tracks_append_prune_demotion_and_fast_forward():
    chain = Blockchain()
    assert chain.total_size_bytes() == recounted(chain) > 0     # genesis
    grow(chain, 8)
    assert chain.total_size_bytes() == recounted(chain)
    chain.drop_bodies_below(3)                                  # heights 1, 2
    assert chain.total_size_bytes() == recounted(chain)
    chain.prune_below(2, cert_for(chain, 2))                    # export: drops 0, 1
    assert chain.total_size_bytes() == recounted(chain)
    grow(chain, 2, start_sn=20)
    assert chain.total_size_bytes() == recounted(chain)

    # StateSync fast-forward: a peer pruned past our head, so its verified
    # segment replaces our blocks wholesale.
    peer = grow(Blockchain(), 14)
    peer.prune_below(12, cert_for(peer, 12))
    segment = [peer.block_at(height) for height in range(12, 15)]
    chain.adopt(Blockchain.from_blocks(segment, prune_certificate=peer.prune_certificate))
    assert (chain.base_height, chain.height) == (12, 14)
    assert chain.total_size_bytes() == recounted(chain) == peer.total_size_bytes()
    grow(chain, 1, start_sn=40)
    assert chain.total_size_bytes() == recounted(chain)


def test_from_blocks_verifies():
    chain = grow(Blockchain(), 3)
    rebuilt = Blockchain.from_blocks([chain.block_at(h) for h in range(0, 4)])
    assert rebuilt.height == 3


def test_from_blocks_detects_gap():
    chain = grow(Blockchain(), 3)
    with pytest.raises(ChainError):
        Blockchain.from_blocks([chain.block_at(0), chain.block_at(2)])


def test_from_blocks_rejects_empty():
    with pytest.raises(ChainError):
        Blockchain.from_blocks([])


def test_tamper_detection_from_single_surviving_copy():
    # The accident scenario: only one node's chain survives; any later
    # modification of a logged event must be detectable (R3).
    chain = grow(Blockchain(), 5)
    blocks = [chain.block_at(h) for h in range(0, 6)]
    tampered = Block(header=blocks[3].header, requests=(signed_request(1234),))
    blocks[3] = tampered
    with pytest.raises(ChainError):
        Blockchain.from_blocks(blocks)
