"""Fast chain seeding for export experiments.

Table II exports up to 16 000 blocks (three hours of operation).  Running
full consensus to produce them would only exercise code paths the ordering
benchmarks already cover; export is intentionally decoupled from agreement
(§III-D), so its experiments seed replica state directly: real blocks with
real signed checkpoint certificates, indistinguishable from consensus
output to the export protocol.
"""

from __future__ import annotations

from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.config import BftConfig
from repro.bft.messages import Checkpoint, checkpoint_state_digest
from repro.chain.blockchain import Blockchain
from repro.chain.block import build_block
from repro.crypto.keys import KeyPair
from repro.wire.messages import Request, SignedRequest


def seed_chain_and_checkpoints(
    config: BftConfig,
    keypairs: dict[str, KeyPair],
    n_blocks: int,
    requests_per_block: int = 10,
    payload_bytes: int = 64,
    cycle_time_s: float = 0.064,
) -> tuple[Blockchain, dict[int, CheckpointCertificate]]:
    """Build a chain of ``n_blocks`` with a stable checkpoint per block.

    Returns the chain and a map of block height to its certificate, both
    shared by all replicas (they would be byte-identical after consensus).
    """
    chain = Blockchain()
    certificates: dict[int, CheckpointCertificate] = {}
    proposer = config.replica_ids[0]
    proposer_pair = keypairs[proposer]
    seq = 0
    for height in range(1, n_blocks + 1):
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
        digest = checkpoint_state_digest(block.block_hash, block.height, [])
        signatures = []
        for replica_id in config.replica_ids[: config.quorum]:
            checkpoint = Checkpoint(
                seq=seq,
                block_height=block.height,
                block_hash=block.block_hash,
                state_digest=digest,
                replica_id=replica_id,
            ).signed(keypairs[replica_id])
            signatures.append(checkpoint)
        certificates[height] = CheckpointCertificate(
            seq=seq,
            block_height=block.height,
            block_hash=block.block_hash,
            state_digest=digest,
            signatures=tuple(signatures),
        )
    return chain, certificates


def clone_chain(chain: Blockchain) -> Blockchain:
    """Independent copy for one replica (pruning must not alias)."""
    return Blockchain(chain_id=chain.chain_id, _blocks=list(chain._blocks),
                      prune_certificate=chain.prune_certificate)
