"""Durable block persistence.

The paper persists the blockchain on disk to survive power loss (§V-B,
"to ensure data integrity after e.g., power loss, we persist the blockchain
on disk").  One entry per block, named by height and verified on read; the
stable checkpoint and the prune certificate behind SHA-256 checksums.  Only
:class:`~repro.chain.blockchain.Blockchain` writes blocks and certificate, so
a restart reads back exactly its chain, as bytes.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path

from repro.chain.block import Block
from repro.chain.blockchain import PruneCertificate
from repro.util.errors import ChainError

_BLOCK_NAME = re.compile(r"block-(\d+)\.zc")
_CHECKPOINT = "checkpoint.zc"
_PRUNE = "prune.zc"


def _block_name(height: int) -> str:
    return f"block-{height:012d}.zc"


class MemoryBlockStore:
    """The store, its bytes in a dict (the simulator's per-node storage).

    :class:`BlockStore` overrides the four methods that touch bytes only.
    """

    def __init__(self) -> None:
        self._entries: dict[str, bytes] = {}

    def _put(self, name: str, data: bytes) -> None:
        self._entries[name] = data

    def _get(self, name: str) -> bytes | None:
        return self._entries.get(name)

    def _drop(self, name: str) -> bool:
        return self._entries.pop(name, None) is not None

    def _names(self) -> list[str]:
        return list(self._entries)

    def write(self, block: Block) -> None:
        self._put(_block_name(block.height), block.encode())

    def read(self, height: int) -> Block:
        encoded = self._get(_block_name(height))
        if encoded is None:
            raise ChainError(f"no stored block at height {height}")
        block = Block.decode(encoded)
        if block.height != height:
            raise ChainError(
                f"stored entry for height {height} contains block {block.height}"
            )
        if not block.verify_payload():
            raise ChainError(f"stored block {height} failed payload verification")
        return block

    def delete(self, height: int) -> bool:
        return self._drop(_block_name(height))

    def heights(self) -> list[int]:
        matches = (_BLOCK_NAME.fullmatch(name) for name in self._names())
        return sorted(int(match[1]) for match in matches if match)

    def load_all(self) -> list[Block]:
        return [self.read(height) for height in self.heights()]

    def _put_checked(self, name: str, data: bytes) -> None:
        self._put(name, hashlib.sha256(data).digest() + data)

    def _get_checked(self, name: str) -> bytes | None:
        stored = self._get(name)
        if stored is None:
            return None
        checksum, data = stored[:32], stored[32:]
        if hashlib.sha256(data).digest() != checksum:
            raise ChainError(f"stored {name} failed its checksum")
        return data

    def write_checkpoint(self, encoded_certificate: bytes) -> None:
        """Persist the latest stable checkpoint, replacing the previous one."""
        self._put_checked(_CHECKPOINT, encoded_certificate)

    def read_checkpoint(self) -> bytes | None:
        return self._get_checked(_CHECKPOINT)

    def write_prune_certificate(self, certificate: PruneCertificate | None) -> None:
        """Persist the certificate justifying the chain's base (``None``: genesis)."""
        if certificate is None:
            self._drop(_PRUNE)
        else:
            self._put_checked(_PRUNE, certificate.encode())

    def read_prune_certificate(self) -> PruneCertificate | None:
        encoded = self._get_checked(_PRUNE)
        return None if encoded is None else PruneCertificate.decode(encoded)


class BlockStore(MemoryBlockStore):
    """The same store with one file per entry in ``directory``."""

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _put(self, name: str, data: bytes) -> None:
        path = self._dir / name
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)  # atomic publish

    def _get(self, name: str) -> bytes | None:
        path = self._dir / name
        return path.read_bytes() if path.exists() else None

    def _drop(self, name: str) -> bool:
        path = self._dir / name
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def _names(self) -> list[str]:
        return [path.name for path in self._dir.iterdir()]
