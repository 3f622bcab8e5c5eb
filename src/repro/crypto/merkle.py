"""Merkle trees over block payloads.

Blocks commit to their requests via a Merkle root, which lets the export
side later prove inclusion of a single request to an auditor without
shipping the whole block.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    """Tagged hash of one leaf; what ``leaf_hashes=`` below expects."""
    return hashlib.sha256(_LEAF_TAG + data).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


EMPTY_ROOT = hashlib.sha256(b"zugchain/merkle/empty").digest()


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the leaf index and sibling hashes bottom-up."""

    index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """Binary Merkle tree with second-preimage-resistant leaf/node tagging.

    Odd nodes at each level are promoted unpaired (Bitcoin-style duplication
    would allow mutation attacks; promotion does not).  A caller that keeps
    its leaves' :func:`leaf_hash` values passes those as ``leaf_hashes``
    instead of the leaves.
    """

    def __init__(self, leaves: list[bytes] = (), *,
                 leaf_hashes: list[bytes] | None = None) -> None:
        level = ([leaf_hash(leaf) for leaf in leaves] if leaf_hashes is None
                 else list(leaf_hashes))
        self._leaf_count = len(level)
        self._levels: list[list[bytes]] = []
        if level:
            self._levels.append(level)
            while len(level) > 1:
                nxt = []
                for i in range(0, len(level) - 1, 2):
                    nxt.append(_hash_node(level[i], level[i + 1]))
                if len(level) % 2:
                    nxt.append(level[-1])
                level = nxt
                self._levels.append(level)

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def root(self) -> bytes:
        if not self._levels:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range 0..{self._leaf_count - 1}")
        siblings: list[bytes] = []
        pos = index
        for level in self._levels[:-1]:
            sibling_pos = pos ^ 1
            if sibling_pos < len(level):
                siblings.append(level[sibling_pos])
            pos //= 2
        return MerkleProof(index=index, siblings=tuple(siblings))


def merkle_root(leaves: list[bytes]) -> bytes:
    """Root of a Merkle tree over ``leaves`` (EMPTY_ROOT for no leaves)."""
    return MerkleTree(leaves).root


def verify_merkle_proof(leaf: bytes, proof: MerkleProof, root: bytes, leaf_count: int) -> bool:
    """Check that ``leaf`` is included at ``proof.index`` under ``root``.

    ``leaf_count`` is needed to reconstruct where unpaired promotions occur.
    """
    if not 0 <= proof.index < leaf_count:
        return False
    current = leaf_hash(leaf)
    pos = proof.index
    width = leaf_count
    sibling_iter = iter(proof.siblings)
    while width > 1:
        sibling_pos = pos ^ 1
        if sibling_pos < width:
            try:
                sibling = next(sibling_iter)
            except StopIteration:
                return False
            if pos % 2 == 0:
                current = _hash_node(current, sibling)
            else:
                current = _hash_node(sibling, current)
        # unpaired node is promoted unchanged
        pos //= 2
        width = (width + 1) // 2
    if next(sibling_iter, None) is not None:
        return False
    return current == root
