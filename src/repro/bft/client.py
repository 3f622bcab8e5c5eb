"""Traditional PBFT client handling — the paper's evaluation baseline.

In the baseline "each node runs a client and replica process and every
client reads bus data and forwards it to the primary as a BFT request.
Identical requests are thus ordered up to four times" (§V-A).  PBFT dedups
only on complete requests including client ids, not payloads, so the four
clients' copies of one bus cycle are four distinct requests.

The client implements standard PBFT behaviour: send to the primary, wait
for f+1 matching replies, and on timeout retransmit by broadcasting to all
replicas (which is also what exposes a censoring primary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Callable

from repro.bft.config import BftConfig
from repro.bft.env import Env
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, KeyStore
from repro.wire.codec import UNSIGNED, Hash32, Inline, Sig, SignedStruct, WireStruct
from repro.wire.messages import Request, SignedRequest, request_payload_bytes

_DOMAIN_REPLY = b"pbft/reply"


@dataclass(frozen=True)
class ClientRequestWrapper(WireStruct, tag=20):
    """Client traffic envelope, distinguishable from ZugChain broadcasts."""

    request: Annotated[SignedRequest, Inline]

    signs_to_emit = 1
    verifies_to_ingest = 1
    payload_bytes = request_payload_bytes


@dataclass(frozen=True)
class Reply(SignedStruct, tag=21):
    """Replica's execution acknowledgement to the submitting client."""

    seq: int
    digest: Hash32
    client_id: str
    replica_id: str
    signature: Sig = UNSIGNED

    SIGNER = "replica_id"
    signs_to_emit = 1
    verifies_to_ingest = 1

    def signing_payload(self) -> bytes:
        return sha256(
            self.seq.to_bytes(8, "big"),
            self.digest,
            self.client_id.encode(),
            self.replica_id.encode(),
            domain=_DOMAIN_REPLY,
        )


@dataclass
class _PendingRequest:
    signed: SignedRequest
    submitted_at: float
    replies: dict[str, Reply] = field(default_factory=dict)
    timer: object = None
    retransmitted: bool = False


class PbftClient:
    """One node's client process in the baseline configuration."""

    def __init__(
        self,
        env: Env,
        config: BftConfig,
        keypair: KeyPair,
        keystore: KeyStore,
        on_complete: Callable[[SignedRequest, int, float], None],
        retry_timeout_s: float | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.keypair = keypair
        self.keystore = keystore
        self._on_complete = on_complete
        self._retry_timeout_s = retry_timeout_s or config.view_change_timeout_s
        self._primary_hint = config.primary_of_view(0)
        self._pending: dict[bytes, _PendingRequest] = {}
        self.completed = 0
        self.retransmissions = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def note_primary(self, primary_id: str) -> None:
        """Update the primary hint and retransmit the backlog.

        On learning of a view change, pending requests (possibly sent to the
        deposed primary and lost with it) are resent to the new primary
        immediately with fresh retry timers, so they complete well before
        the restarted view-change timers on the backups expire.
        """
        self._primary_hint = primary_id
        for digest, pending in sorted(self._pending.items()):
            if pending.timer is not None:
                pending.timer.cancel()
            self.env.send(primary_id, ClientRequestWrapper(request=pending.signed))
            pending.timer = self.env.set_timer(
                self._retry_timeout_s,
                lambda digest=digest: self._retransmit(digest),
            )

    def submit(self, request: Request) -> SignedRequest:
        """Sign and forward a bus request to the primary; arm retransmission."""
        signed = SignedRequest.create(request, self.env.node_id, self.keypair)
        pending = _PendingRequest(signed=signed, submitted_at=self.env.now())
        self._pending[signed.digest] = pending
        self.env.send(self._primary_hint, ClientRequestWrapper(request=signed))
        pending.timer = self.env.set_timer(
            self._retry_timeout_s, lambda: self._retransmit(signed.digest)
        )
        return signed

    def _retransmit(self, digest: bytes) -> None:
        pending = self._pending.get(digest)
        if pending is None:
            return
        # Standard PBFT: after the first timeout, broadcast to all replicas so
        # a censoring primary cannot suppress the request.
        self.retransmissions += 1
        pending.retransmitted = True
        self.env.broadcast(ClientRequestWrapper(request=pending.signed))
        pending.timer = self.env.set_timer(
            self._retry_timeout_s, lambda: self._retransmit(digest)
        )

    def on_reply(self, reply: Reply) -> None:
        pending = self._pending.get(reply.digest)
        if pending is None:
            return
        if reply.client_id != self.env.node_id:
            return
        if not self.config.is_member(reply.replica_id) or not reply.verify(self.keystore):
            return
        pending.replies[reply.replica_id] = reply
        matching = [r for r in pending.replies.values() if r.seq == reply.seq]
        if len(matching) >= self.config.f + 1:
            if pending.timer is not None:
                pending.timer.cancel()
            del self._pending[reply.digest]
            self.completed += 1
            latency = self.env.now() - pending.submitted_at
            self._on_complete(pending.signed, reply.seq, latency)
