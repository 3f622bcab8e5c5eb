"""Per-message CPU cost model.

Combines the cost traits each message class declares
(:class:`~repro.wire.codec.WireStruct`: ``signs_to_emit``,
``verifies_to_ingest``, ``payload_bytes``) with the constants in
:class:`~repro.sim.resources.CostModel`; together they produce the
latency/CPU numbers of Fig. 6/7.  The declared counts follow directly from
the protocol definitions:

* a preprepare carries two signatures (the embedded signed request and the
  primary's own), so it costs two signs to emit and two verifies to ingest;
* vote messages (prepare/commit/checkpoint/reply) carry one signature;
* view changes carry one signature plus one per embedded prepared proof;
* request-bearing messages additionally hash their payload.
"""

from __future__ import annotations

from typing import Any

from repro.sim.resources import CostModel

#: Ethernet + IP + TCP framing per message on the consensus network.
ETHERNET_OVERHEAD_BYTES = 54


def wire_size(message: Any) -> int:
    """Bytes a message occupies on the wire, including framing."""
    return message.encoded_size() + ETHERNET_OVERHEAD_BYTES


def send_cost(message: Any, model: CostModel, copies: int = 1) -> float:
    """CPU seconds to emit ``message`` (``copies`` serializations, one signing)."""
    size = wire_size(message)
    cost = model.message_overhead_s
    cost += model.sign_s * message.signs_to_emit
    cost += model.serialize_cost(size) * max(1, copies)
    payload = message.payload_bytes
    if payload:
        cost += model.hash_cost(payload)
    return cost


def recv_cost(message: Any, model: CostModel) -> float:
    """CPU seconds to ingest ``message`` (deserialize, verify, hash)."""
    size = wire_size(message)
    cost = model.message_overhead_s
    cost += model.verify_s * message.verifies_to_ingest
    cost += model.serialize_cost(size)
    payload = message.payload_bytes
    if payload:
        cost += model.hash_cost(payload)
    return cost


def discard_cost(size_bytes: int, model: CostModel) -> float:
    """CPU seconds to ingest ``size_bytes`` of a vote that is dropped unverified.

    Deserialize and look up, nothing else: the lazy-verification path of
    :meth:`~repro.runtime.host.NodeHost._deliver`.
    """
    return model.message_overhead_s + model.serialize_cost(size_bytes)


def bus_parse_cost(cycle_wire_bytes: int, model: CostModel) -> float:
    """CPU seconds to parse one bus cycle's telegrams into a request."""
    return model.serialize_cost(cycle_wire_bytes) + model.hash_cost(cycle_wire_bytes)
