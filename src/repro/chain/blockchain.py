"""The replica-local chain: append, validate, prune, headers-only fallback.

Pruning implements §III-D: after a confirmed export, blocks up to the
exported index are deleted, "keeping the last exported block to serve as
the first block for the pruned blockchain".  The signed data-center deletes
are retained as a :class:`PruneCertificate` so a transferred or audited
chain can justify why it does not start at genesis (error scenario ii).

A chain built over a store (§V-B, "we persist the blockchain on disk") is
the store's only writer: every append, prune and adoption keeps it holding
heights ``max(1, base)`` to head and the prune certificate, and
:meth:`Blockchain.from_store` rebuilds the chain from it after a restart.

If deletes are missed and memory runs out, replicas can fall back to
dropping block bodies while keeping headers (error scenario v) — hashes
remain available, so integrity of the retained chain is still verifiable.
That fallback frees memory only: the store keeps the full bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.block import Block, genesis_block
from repro.util.errors import ChainError
from repro.wire.codec import WireStruct

if TYPE_CHECKING:
    from repro.chain.store import MemoryBlockStore


@dataclass(frozen=True)
class PruneCertificate(WireStruct):
    """Proof that pruning below ``base_height`` was authorized by data centers.

    Untagged: ``StateReply`` carries its fields; the store keeps its encoding.
    """

    base_height: int
    base_block_hash: bytes
    delete_signatures: dict[str, bytes]  # data-center id -> signature


@dataclass
class Blockchain:
    """Hash-linked block sequence with a movable base."""

    chain_id: str = "zugchain"
    _blocks: list[Block] = field(default_factory=list)
    _headers_only_heights: set[int] = field(default_factory=set)
    prune_certificate: PruneCertificate | None = None
    #: The durable copy this chain keeps equal to itself; ``None``: memory only.
    store: MemoryBlockStore | None = field(default=None, repr=False, compare=False)
    #: Running value of :meth:`total_size_bytes`, which the memory sampler
    #: reads every tick; every method that changes the stored bodies moves it.
    _body_bytes: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self._blocks:
            self._blocks.append(genesis_block(self.chain_id))
        self._body_bytes = self._recount_body_bytes()

    # -- reading --------------------------------------------------------------

    @property
    def base_height(self) -> int:
        return self._blocks[0].height

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self.head.height

    def __len__(self) -> int:
        return len(self._blocks)

    def block_at(self, height: int) -> Block:
        index = height - self.base_height
        if not 0 <= index < len(self._blocks):
            raise ChainError(
                f"height {height} outside stored range "
                f"[{self.base_height}, {self.height}]"
            )
        return self._blocks[index]

    def has_block(self, height: int) -> bool:
        return self.base_height <= height <= self.height

    def blocks_in_range(self, first: int, last: int) -> list[Block]:
        """Blocks with ``first <= height <= last`` (all must be stored)."""
        return [self.block_at(h) for h in range(first, last + 1)]

    def body_available(self, height: int) -> bool:
        return self.has_block(height) and height not in self._headers_only_heights

    def total_size_bytes(self) -> int:
        """Encoded size of every stored block body (headers-only blocks excluded)."""
        return self._body_bytes

    def _recount_body_bytes(self) -> int:
        return sum(
            block.encoded_size()
            for block in self._blocks
            if block.height not in self._headers_only_heights
        )

    # -- writing --------------------------------------------------------------

    def append(self, block: Block) -> None:
        """Append after full validation against the current head."""
        head = self._blocks[-1].header
        header = block.header
        height, head_height = header.height, head.height
        if height != head_height + 1:
            raise ChainError(f"expected height {head_height + 1}, got {height}")
        if header.prev_hash != head.block_hash:
            raise ChainError(f"block {height} does not link to current head")
        if not block.verify_payload():
            raise ChainError(f"block {height} payload does not match its header")
        if header.last_sn <= head.last_sn and head_height > 0:
            raise ChainError(
                f"block {height} sequence {header.last_sn} does not advance"
            )
        self._blocks.append(block)
        self._body_bytes += block.encoded_size()
        if self.store is not None:
            self.store.write(block)

    def prune_below(self, height: int, certificate: PruneCertificate) -> list[Block]:
        """Drop blocks strictly below ``height``; returns the removed blocks.

        ``height`` must reference a stored block, which becomes the new base.
        """
        if not self.has_block(height):
            raise ChainError(f"cannot prune to unknown height {height}")
        base = self.block_at(height)
        if certificate.base_height != height or certificate.base_block_hash != base.block_hash:
            raise ChainError("prune certificate does not match the requested base block")
        # Heights run contiguously from the base, as ``block_at`` relies on.
        first = self.base_height
        removed = self._blocks[:height - first]
        self._blocks = self._blocks[height - first:]
        self._body_bytes -= sum(
            block.encoded_size()
            for h, block in enumerate(removed, first)
            if h not in self._headers_only_heights
        )
        self._headers_only_heights = {
            h for h in self._headers_only_heights if h >= height
        }
        self.prune_certificate = certificate
        if self.store is not None:
            # The certificate first: a store never restarts below its base.
            self.store.write_prune_certificate(certificate)
            for block in removed:
                self.store.delete(block.height)
        return removed

    def drop_bodies_below(self, height: int) -> int:
        """Memory-exhaustion fallback: keep headers, drop request bodies.

        Returns the number of blocks affected.  The genesis/base block is
        kept intact so the chain can still be re-linked.
        """
        first = self.base_height
        affected = 0
        for h in range(first + 1, min(height, self.height + 1)):
            if h not in self._headers_only_heights:
                self._headers_only_heights.add(h)
                self._body_bytes -= self._blocks[h - first].encoded_size()
                affected += 1
        return affected

    def adopt(self, verified: "Blockchain") -> None:
        """Take over the blocks of an already verified chain (state transfer)."""
        previous = {block.height: block.block_hash for block in self._blocks}
        self._blocks = verified._blocks
        self._headers_only_heights = verified._headers_only_heights
        self.prune_certificate = verified.prune_certificate
        self._body_bytes = self._recount_body_bytes()
        if self.store is not None:
            self.store.write_prune_certificate(self.prune_certificate)
            for block in self._blocks:
                if block.height and previous.get(block.height) != block.block_hash:
                    self.store.write(block)
            for height in previous:
                if not self.has_block(height):
                    self.store.delete(height)

    # -- verification -----------------------------------------------------------

    def verify(self) -> None:
        """Full integrity check of the stored chain; raises on violation."""
        previous = None
        for block in self._blocks:
            if previous is not None:
                if block.height != previous.height + 1:
                    raise ChainError(f"gap before height {block.height}")
                if block.header.prev_hash != previous.block_hash:
                    raise ChainError(f"broken link at height {block.height}")
            if block.height not in self._headers_only_heights and not block.verify_payload():
                raise ChainError(f"payload mismatch at height {block.height}")
            previous = block
        if self.base_height > 0 and self.prune_certificate is None:
            raise ChainError("pruned chain is missing its prune certificate")

    def is_valid(self) -> bool:
        try:
            self.verify()
            return True
        except ChainError:
            return False

    @staticmethod
    def from_blocks(blocks: list[Block], chain_id: str = "zugchain",
                    prune_certificate: PruneCertificate | None = None) -> "Blockchain":
        """Reconstruct (e.g. on the data-center side) and verify a chain."""
        if not blocks:
            raise ChainError("cannot build a chain from zero blocks")
        chain = Blockchain(chain_id=chain_id, _blocks=list(blocks),
                           prune_certificate=prune_certificate)
        chain.verify()
        return chain

    @classmethod
    def from_store(cls, store: MemoryBlockStore, chain_id: str = "zugchain") -> "Blockchain":
        """The chain ``store`` holds, rebuilt after a restart (§V-B, power loss):
        from the stored base, the contiguous run of stored blocks; the store
        drops the rest."""
        certificate = store.read_prune_certificate()
        blocks = store.load_all()
        base = [block for block in blocks if certificate is not None
                and block.block_hash == certificate.base_block_hash]
        if certificate is not None and not base:
            raise ChainError("stored prune certificate names no stored block")
        chain = cls(chain_id=chain_id, _blocks=base, prune_certificate=certificate)
        for block in blocks:
            if block.height == chain.height + 1:
                chain.append(block)
        for height in store.heights():
            if not chain.has_block(height):
                store.delete(height)
        chain.store = store
        return chain
