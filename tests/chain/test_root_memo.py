"""The block root memo and the height-sliced prune.

A block keeps the Merkle root of its *own* requests once per object; the
header's claim is compared against it on every ``verify_payload``.  A
copy with another header or other requests (``replace``, a hand-built
``Block``, ``decode``) starts cold, so a memo can never vouch for a
header it was not derived next to.
"""

import dataclasses

import pytest

from repro.chain import Blockchain, PruneCertificate, build_block
from repro.chain.block import Block, genesis_block
from repro.crypto import HmacScheme, MerkleTree
from repro.util import ChainError
from repro.wire import Request, SignedRequest

SCHEME = HmacScheme()
PAIR = SCHEME.derive_keypair(b"node-0")
ROOT_MEMO = "requests_root"


def signed_request(cycle):
    request = Request(payload=b"p%d" % cycle, bus_cycle=cycle, recv_timestamp_us=cycle)
    return SignedRequest.create(request, "node-0", PAIR)


def real_block(first=1, count=3):
    requests = [signed_request(i) for i in range(first, first + count)]
    return build_block(genesis_block().header, requests,
                       timestamp_us=100, last_sn=first + count - 1)


def test_built_block_carries_the_root_of_its_own_requests():
    block = real_block(count=5)
    fresh = MerkleTree([request.encode() for request in block.requests]).root
    assert vars(block)[ROOT_MEMO] == fresh == block.header.payload_root
    assert block.verify_payload()


def test_the_memo_is_not_part_of_the_block():
    warm = real_block()
    cold = Block.decode(warm.encode())
    assert ROOT_MEMO in vars(warm) and ROOT_MEMO not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert warm.encode() == cold.encode()


def test_decoded_block_starts_cold_and_verifies():
    real = real_block()
    decoded = Block.decode(real.encode())
    assert ROOT_MEMO not in vars(decoded)
    assert decoded.verify_payload()
    assert vars(decoded)[ROOT_MEMO] == real.header.payload_root


def forgeries(real):
    forged = dataclasses.replace(real.header, payload_root=b"\x07" * 32)
    other = real_block(first=50).requests
    return [
        Block(header=forged, requests=real.requests),
        dataclasses.replace(real, header=forged),
        dataclasses.replace(real, requests=other),
        Block(header=real.header, requests=other),
    ]


@pytest.mark.parametrize("index", range(4), ids=[
    "built-forged-header", "replaced-header", "replaced-requests", "built-other-requests"])
def test_a_copy_with_another_header_or_payload_fails_verification(index):
    real = real_block()
    assert real.verify_payload()          # the original's memo is warm
    forgery = forgeries(real)[index]
    assert ROOT_MEMO not in vars(forgery)
    assert not forgery.verify_payload()
    chain = Blockchain()
    with pytest.raises(ChainError, match="payload does not match"):
        chain.append(forgery)
    chain.append(real)
    assert chain.height == 1


# -- prune_below / drop_bodies_below index by height ------------------------------


def grow(chain, count, start_sn=1):
    for sn in range(start_sn, start_sn + count):
        chain.append(build_block(chain.head.header, [signed_request(sn)],
                                 timestamp_us=sn * 1000, last_sn=sn))
    return chain


def cert_for(chain, height):
    return PruneCertificate(base_height=height,
                            base_block_hash=chain.block_at(height).block_hash,
                            delete_signatures={"dc-a": b"\x01" * 64})


def filtered_prune(chain, height):
    """What ``prune_below`` computed when it filtered every block by height."""
    dropped = chain._headers_only_heights
    removed = [block for block in chain._blocks if block.height < height]
    body_bytes = chain.total_size_bytes() - sum(
        block.encoded_size() for block in removed if block.height not in dropped)
    return removed, height, {h for h in dropped if h >= height}, body_bytes


def pruned_chain(headers_only):
    chain = grow(Blockchain(), 12)
    chain.prune_below(3, cert_for(chain, 3))
    if headers_only:
        chain.drop_bodies_below(7)
    return chain


@pytest.mark.parametrize("headers_only", [False, True], ids=["bodies", "headers-only"])
@pytest.mark.parametrize("height", [3, 5, 8, 12], ids=["base", "in-dropped", "mid", "head"])
def test_prune_slices_exactly_what_the_filter_removed(height, headers_only):
    chain = pruned_chain(headers_only)
    assert chain._headers_only_heights == ({4, 5, 6} if headers_only else set())
    removed, base, dropped, body_bytes = filtered_prune(chain, height)
    assert chain.prune_below(height, cert_for(chain, height)) == removed
    assert chain.base_height == base
    assert chain._headers_only_heights == dropped
    assert chain.total_size_bytes() == body_bytes == chain._recount_body_bytes()
    chain.verify()


def filtered_drop(chain, height):
    """What ``drop_bodies_below`` marked when it scanned every block."""
    return [block.height for block in chain._blocks
            if chain.base_height < block.height < height
            and block.height not in chain._headers_only_heights]


@pytest.mark.parametrize("height", [0, 3, 4, 6, 9, 13, 40])
def test_drop_bodies_marks_exactly_what_the_scan_marked(height):
    chain = pruned_chain(headers_only=False)
    chain.drop_bodies_below(5)
    want = filtered_drop(chain, height)
    before = set(chain._headers_only_heights)
    assert chain.drop_bodies_below(height) == len(want)
    assert chain._headers_only_heights == before | set(want)
    assert chain.total_size_bytes() == chain._recount_body_bytes()
