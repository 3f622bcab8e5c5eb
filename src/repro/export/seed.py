"""Fast chain seeding for export experiments.

Table II exports up to 16 000 blocks (three hours of operation).  Running
full consensus to produce them would only exercise code paths the ordering
benchmarks already cover; export is intentionally decoupled from agreement
(§III-D), so its experiments seed replica state directly: real blocks with
real signed checkpoint certificates, indistinguishable from consensus
output to the export protocol.

A replica keeps its latest stable checkpoint, and an export round reads
only that one, so the head's certificate is signed while seeding and any
other height's when it is first read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint, checkpoint_state_digest
from repro.chain.blockchain import Blockchain
from repro.chain.block import BlockHeader, build_block
from repro.crypto.keys import KeyPair
from repro.wire.messages import Request, SignedRequest


class SeededCertificates(Mapping[int, CheckpointCertificate]):
    """Height → stable checkpoint certificate of a seeded chain, read-only.

    A height's certificate is signed on its first read and kept, so every
    read of it returns the same object; the bytes are those a seed that
    signed every height up front would hold.  ``in``, ``len`` and iteration
    sign nothing.
    """

    def __init__(self, config: BftConfig, keypairs: dict[str, KeyPair],
                 headers: list[BlockHeader]) -> None:
        self._signers = [(replica_id, keypairs[replica_id])
                         for replica_id in config.replica_ids[: config.quorum]]
        self._headers = headers  # of heights 1, 2, ...
        self._signed: dict[int, CheckpointCertificate] = {}

    def __getitem__(self, height: int) -> CheckpointCertificate:
        cert = self._signed.get(height)
        if cert is None:
            if height not in self:
                raise KeyError(height)
            cert = self._signed[height] = self._certify(self._headers[height - 1])
        return cert

    def __contains__(self, height: object) -> bool:
        return isinstance(height, int) and 1 <= height <= len(self._headers)

    def __len__(self) -> int:
        return len(self._headers)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self._headers) + 1))

    def _certify(self, header: BlockHeader) -> CheckpointCertificate:
        """A quorum's signed checkpoints of the block behind ``header``."""
        block_hash = header.block_hash
        digest = checkpoint_state_digest(block_hash, header.height, [])
        signatures = tuple(
            Checkpoint(
                seq=header.last_sn,
                block_height=header.height,
                block_hash=block_hash,
                state_digest=digest,
                replica_id=replica_id,
            ).signed(keypair)
            for replica_id, keypair in self._signers
        )
        return CheckpointCertificate(
            seq=header.last_sn,
            block_height=header.height,
            block_hash=block_hash,
            state_digest=digest,
            signatures=signatures,
        )


def seed_chain_and_checkpoints(
    config: BftConfig,
    keypairs: dict[str, KeyPair],
    n_blocks: int,
    requests_per_block: int = 10,
    payload_bytes: int = 64,
    cycle_time_s: float = 0.064,
) -> tuple[Blockchain, SeededCertificates]:
    """Build a chain of ``n_blocks`` with a stable checkpoint per block.

    Returns the chain and a map of block height to its certificate, both
    shared by all replicas (they would be byte-identical after consensus).
    The head's certificate is signed before this returns.
    """
    chain = Blockchain()
    headers: list[BlockHeader] = []
    proposer = config.replica_ids[0]
    proposer_pair = keypairs[proposer]
    seq = 0
    for _ in range(n_blocks):
        requests = []
        for _ in range(requests_per_block):
            seq += 1
            payload = (seq.to_bytes(8, "big") * ((payload_bytes // 8) + 1))[:payload_bytes]
            request = Request(
                payload=payload,
                bus_cycle=seq,
                recv_timestamp_us=int(seq * cycle_time_s * 1e6),
            )
            requests.append(SignedRequest.create(request, proposer, proposer_pair))
        block = build_block(
            chain.head.header,
            requests,
            timestamp_us=requests[-1].request.recv_timestamp_us,
            last_sn=seq,
        )
        chain.append(block)
        headers.append(block.header)
    certificates = SeededCertificates(config, keypairs, headers)
    certificates.get(n_blocks)
    return chain, certificates


def clone_chain(chain: Blockchain) -> Blockchain:
    """Independent copy for one replica (pruning must not alias)."""
    return Blockchain(chain_id=chain.chain_id, _blocks=list(chain._blocks),
                      prune_certificate=chain.prune_certificate)
