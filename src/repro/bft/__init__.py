"""Byzantine fault tolerant agreement: one replica core, two ordering phases.

:class:`ReplicaCore` (:mod:`repro.bft.core`) is the primary-based replica
minus its ordering phase — sequence assignment, in-order execution,
checkpointing and the view change — exposing exactly the interface of
Table I that the ZugChain layer builds on:

* downcalls — ``propose(signed_request)`` and ``suspect(node_id)``;
* upcalls — ``decide(signed_request, sn)`` and ``new_primary(node_id)``.

The two backends subclass it with how a request gathers its quorum:
:class:`PbftReplica` (Castro & Liskov's prepare/commit, plus execution gap
fill) and :class:`LinearBftReplica` (votes to the primary, a broadcast commit
certificate).  ``BACKENDS`` maps the ``bft_backend`` option's values to them.

A traditional PBFT *client* (used by the paper's baseline, where every node
forwards every bus request to the primary) lives in
:mod:`repro.bft.client`.
"""

from repro.bft.config import BftConfig
from repro.bft.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    PreparedProof,
    ViewChange,
)
from repro.bft.checkpoint import CheckpointCertificate
from repro.bft.core import ReplicaCore
from repro.bft.replica import PbftReplica
from repro.bft.linear import LinearBftReplica
from repro.bft.client import PbftClient, ClientRequestWrapper
from repro.bft.env import Env, RecordingEnv

#: ``bft_backend`` value -> replica class.
BACKENDS: dict[str, type[ReplicaCore]] = {"pbft": PbftReplica, "linear": LinearBftReplica}

__all__ = [
    "BftConfig",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "PreparedProof",
    "CheckpointCertificate",
    "ReplicaCore",
    "PbftReplica",
    "LinearBftReplica",
    "BACKENDS",
    "PbftClient",
    "ClientRequestWrapper",
    "Env",
    "RecordingEnv",
]
