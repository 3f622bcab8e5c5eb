"""Blocks: headers, payload commitment, deterministic construction.

Replicas "deterministically bundle and hash" ordered requests once the
block-size threshold is reached (§III-C, Blockchain Application).  All
correct replicas therefore build byte-identical blocks, which is what makes
the per-block checkpoint digests comparable across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import DOMAIN_BLOCK, sha256
from repro.crypto.merkle import MerkleTree, merkle_root
from repro.util.errors import ChainError
from repro.util.memo import memoized
from repro.wire.codec import Hash32, WireStruct
from repro.wire.messages import SignedRequest

GENESIS_PREV_HASH = b"\x00" * 32
_ROOT_MEMO = "requests_root"  # where ``Block.requests_root`` (a ``memoized``) keeps its value


@dataclass(frozen=True)
class BlockHeader(WireStruct, tag=40):
    """Integrity-critical block metadata."""

    height: int
    prev_hash: Hash32
    payload_root: Hash32
    timestamp_us: int
    request_count: int
    last_sn: int  # consensus sequence number of the last included request

    @memoized
    def block_hash(self) -> bytes:
        return sha256(
            self.prev_hash,
            self.payload_root,
            self.height.to_bytes(8, "big"),
            self.timestamp_us.to_bytes(8, "big"),
            self.request_count.to_bytes(4, "big"),
            self.last_sn.to_bytes(8, "big"),
            domain=DOMAIN_BLOCK,
        )


def _payload_tree(requests) -> MerkleTree:
    return MerkleTree(leaf_hashes=[request.merkle_leaf for request in requests])


@dataclass(frozen=True)
class Block(WireStruct, tag=41):
    """A header plus the ordered signed requests it commits to."""

    header: BlockHeader
    requests: tuple[SignedRequest, ...]

    @property
    def height(self) -> int:
        return self.header.height

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash

    @property
    def last_sn(self) -> int:
        return self.header.last_sn

    def merkle_tree(self) -> MerkleTree:
        return _payload_tree(self.requests)

    @memoized
    def requests_root(self) -> bytes:
        """Merkle root of this block's own ``requests``, whatever its header says.

        The input of :meth:`verify_payload`, kept once per object; the
        verdict is not.  Not a field, so ``==``/``hash``/``repr``/``encode``
        ignore it, and a decoded, replaced or hand-built block starts cold.
        """
        return self.merkle_tree().root

    def verify_payload(self) -> bool:
        """Check the Merkle commitment and request count against the header."""
        if len(self.requests) != self.header.request_count:
            return False
        return self.requests_root == self.header.payload_root


def genesis_block(chain_id: str = "zugchain") -> Block:
    """Deterministic height-0 block shared by all replicas at startup.

    The chain id is bound via the (otherwise unused) previous-hash field so
    distinct deployments produce distinct genesis hashes while the payload
    commitment remains a valid (empty) Merkle root.
    """
    header = BlockHeader(
        height=0,
        prev_hash=sha256(chain_id.encode(), domain=DOMAIN_BLOCK),
        payload_root=merkle_root([]),
        timestamp_us=0,
        request_count=0,
        last_sn=0,
    )
    return Block(header=header, requests=())


def build_block(
    prev: BlockHeader,
    requests: list[SignedRequest],
    timestamp_us: int,
    last_sn: int,
) -> Block:
    """Deterministically bundle ordered requests into the next block."""
    if not requests:
        raise ChainError("cannot build an empty block")
    if last_sn <= prev.last_sn and prev.height > 0:
        raise ChainError(
            f"block sequence must advance: last_sn {last_sn} <= previous {prev.last_sn}"
        )
    root = _payload_tree(requests).root
    header = BlockHeader(
        height=prev.height + 1,
        prev_hash=prev.block_hash,
        payload_root=root,
        timestamp_us=timestamp_us,
        request_count=len(requests),
        last_sn=last_sn,
    )
    block = Block(header=header, requests=tuple(requests))
    # The header's root was derived from exactly these requests: hand it
    # over so the first ``verify_payload`` does not build the tree again.
    block.__dict__[_ROOT_MEMO] = root
    return block
