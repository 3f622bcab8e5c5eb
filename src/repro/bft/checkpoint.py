"""Stable checkpoint certificates.

A stable checkpoint is a (seq, block, state) reference backed by 2f+1
replica signatures.  It serves two roles:

* inside PBFT — garbage collection of ordering messages below ``seq``;
* in the export protocol — the proof data centers use that a block is part
  of the agreed blockchain, letting export bypass consensus (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint
from repro.crypto.keys import KeyStore
from repro.util.errors import ProtocolError
from repro.wire.codec import Hash32, WireStruct


@dataclass(frozen=True)
class CheckpointCertificate(WireStruct, tag=16):
    """2f+1 matching, signed checkpoint messages for one (seq, digest)."""

    seq: int
    block_height: int
    block_hash: Hash32
    state_digest: Hash32
    signatures: tuple[Checkpoint, ...]

    def signer_ids(self) -> set[str]:
        return {cp.replica_id for cp in self.signatures}

    def verify(self, keystore: KeyStore, config: BftConfig) -> bool:
        """Check quorum size, membership, consistency, and every signature."""
        if len(self.signer_ids()) < config.quorum:
            return False
        for checkpoint in self.signatures:
            if not config.is_member(checkpoint.replica_id):
                return False
            if (checkpoint.seq, checkpoint.block_height, checkpoint.block_hash,
                    checkpoint.state_digest) != (self.seq, self.block_height,
                                                 self.block_hash, self.state_digest):
                return False
            if not checkpoint.verify(keystore):
                return False
        return True


class CheckpointCollector:
    """Accumulates checkpoint messages until a certificate becomes stable."""

    def __init__(self, config: BftConfig, keystore: KeyStore) -> None:
        self._config = config
        self._keystore = keystore
        # (seq, digest) -> replica_id -> Checkpoint
        self._pending: dict[tuple[int, bytes], dict[str, Checkpoint]] = {}
        self._stable: dict[int, CheckpointCertificate] = {}

    def add(self, checkpoint: Checkpoint) -> CheckpointCertificate | None:
        """Record a checkpoint message; returns a certificate if now stable."""
        if not self._config.is_member(checkpoint.replica_id):
            raise ProtocolError(f"checkpoint from non-member {checkpoint.replica_id!r}")
        if not checkpoint.verify(self._keystore):
            return None
        if checkpoint.seq in self._stable:
            return None
        key = (checkpoint.seq, checkpoint.state_digest)
        votes = self._pending.setdefault(key, {})
        votes[checkpoint.replica_id] = checkpoint
        if len(votes) < self._config.quorum:
            return None
        certificate = CheckpointCertificate(
            seq=checkpoint.seq,
            block_height=checkpoint.block_height,
            block_hash=checkpoint.block_hash,
            state_digest=checkpoint.state_digest,
            signatures=tuple(sorted(votes.values(), key=lambda cp: cp.replica_id)),
        )
        self._stable[checkpoint.seq] = certificate
        # Older pending votes are obsolete once a later checkpoint stabilizes.
        self._pending = {
            key: votes for key, votes in self._pending.items() if key[0] > checkpoint.seq
        }
        return certificate

    def install(self, certificate: CheckpointCertificate) -> None:
        """Adopt an externally verified certificate (state transfer)."""
        self._stable.setdefault(certificate.seq, certificate)

    def stable_at(self, seq: int) -> CheckpointCertificate | None:
        return self._stable.get(seq)

    def latest_stable(self) -> CheckpointCertificate | None:
        if not self._stable:
            return None
        return self._stable[max(self._stable)]

    def stable_seqs(self) -> list[int]:
        return sorted(self._stable)

    def discard_below(self, seq: int) -> None:
        """Free certificates below ``seq`` (after export confirms deletion)."""
        self._stable = {s: cert for s, cert in self._stable.items() if s >= seq}
