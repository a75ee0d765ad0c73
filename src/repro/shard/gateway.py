"""Cross-shard frame transit: boundary links and the serializing gateway.

A boundary link's near half — queueing, serialization, channel errors,
drop accounting — runs byte-identically to a serial run on the shard
that owns the source node.  Only *when* the frame lands differs: an
ordinary link lands a frame once, after propagation and switching, but
the far shard must hear of a frame a full propagation delay (the
lookahead) ahead, so :class:`GatewayLink` overrides
:meth:`~repro.netsim.link.Link._launch` to land it eagerly, at the
instant it leaves the wire.  The link then delivers to the shard's
:class:`ShardGateway`, which encodes the frame with the wire codec (the
same ``encode_frame``/``decode_frame`` pair the real transport
substrates use) and stamps its arrival time ``now + link.delay``; the
far side adds its node's switching latency and enters the frame exactly
when the serial run's landing would have fired.

Egress release discipline mirrors
``repro.transport.fabric.RealFabric._encode_for_send``: the pooled wire
reference is consumed in a ``finally`` no matter what happens (encode
error, refusal, success), because past this point no receive path in
this process will ever release it.  The far side decodes a *fresh,
unpooled* PDU, so each shard's PDU pool balances independently
(Δrecycled == Δacquired at quiesce).

Refused at the gate, by design rather than by accident:

* **multicast** frames — the delivery tree is topology state, not frame
  state; a boundary link is strictly point-to-point (and the wire codec
  refuses multicast anyway — the gateway counts it explicitly);
* **heartbeat** frames — liveness beacons probe a *wire*, and the shard
  pipe is not the simulated wire; control-plane liveness stays local;
* payloads the codec cannot frame (counted as ``encode_errors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

from repro.netsim.frame import (
    Frame,
    WireFormatError,
    decode_frame,
    encode_frame_into,
)
from repro.netsim.link import Link
from repro.tko.pdu import PDU

#: inbound message tuple layout (also the deterministic injection sort
#: key): (arrival_time, priority, src_shard, egress_seq, ingress_node, blob)
Message = Tuple[float, int, int, int, str, bytes]


@dataclass
class GatewayStats:
    """Per-shard transit counters (exported as ``shard_*`` metrics)."""

    frames_out: int = 0
    bytes_out: int = 0
    frames_in: int = 0
    refused_multicast: int = 0
    refused_heartbeat: int = 0
    encode_errors: int = 0


class GatewayLink(Link):
    """The near half of a boundary link.

    Created in place by :func:`make_boundary` (a class swap, so the
    link's queues, stats and RNG stream — everything the serial run
    already computed — carry over untouched).  The frame's one event
    fires at ``done``, where ``Link._land`` draws the channel error,
    checks ``up`` and delivers the survivor to the gateway instead of a
    local node.  The handler stays ``Link._land``, and at priority -1 it
    precedes a fault at the same instant, which is how a lazy link reads
    its change log.
    """

    gateway: "ShardGateway"
    dst_shard: int
    far_node: str

    def _launch(self, frame: Frame, done: float) -> None:
        self.sim.schedule_transient_at(done, self._land, frame, done,
                                       priority=-1)


def make_boundary(link: Link, gateway: "ShardGateway", dst_shard: int,
                  far_node: str) -> GatewayLink:
    """Convert an ordinary link into a gateway-backed boundary link."""
    link.__class__ = GatewayLink
    link.deliver = partial(gateway.ship, link)
    link.gateway = gateway
    link.dst_shard = dst_shard
    link.far_node = far_node
    return link


class ShardGateway:
    """Serializing egress/ingress proxy for one shard's boundary links.

    Egress (:meth:`ship`) accumulates wire-encoded messages in the epoch
    outbox; the worker drains it at each barrier and the coordinator
    routes messages to their destination shards.  Ingress
    (:meth:`inject`) decodes and schedules them at their stamped arrival
    time, in a deterministic global order.
    """

    def __init__(self, sim, network, shard_id: int) -> None:
        self.sim = sim
        self.network = network
        self.shard_id = shard_id
        self.stats = GatewayStats()
        self._outbox: List[Tuple[int, Message]] = []
        self._seq = 0
        self._buf = bytearray()

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------
    def ship(self, link: GatewayLink, frame: Frame) -> None:
        """Carry one frame off-shard, consuming its pooled wire reference."""
        stats = self.stats
        pdu = frame.payload if isinstance(frame.payload, PDU) else None
        try:
            if frame.multicast_dsts is not None:
                stats.refused_multicast += 1
                return
            if frame.heartbeat:
                stats.refused_heartbeat += 1
                return
            try:
                data = bytes(encode_frame_into(frame, self._buf))
            except WireFormatError:
                stats.encode_errors += 1
                return
        finally:
            if pdu is not None:
                pdu.release()  # the wire's reference, consumed either way
        stats.frames_out += 1
        stats.bytes_out += len(data)
        message: Message = (
            self.sim.now + link.delay,   # now is the frame's ``done``
            frame.priority,
            self.shard_id,
            self._seq,
            link.far_node,
            data,
        )
        self._seq += 1
        self._outbox.append((link.dst_shard, message))

    def drain_outbox(self) -> List[Tuple[int, Message]]:
        """Hand this epoch's accumulated messages to the barrier."""
        out, self._outbox = self._outbox, []
        return out

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def inject(self, messages: List[Message]) -> None:
        """Decode inbound frames and schedule their arrivals.

        Sorted by ``(arrival, priority, src_shard, egress_seq)`` so the
        kernel's same-timestamp tiebreak (schedule order) is a pure
        function of message content, never of pipe timing.  The decoded
        frame enters the ingress node through ``arrived`` — the far half
        of the serial run's landing — at the stamped arrival time plus
        the node's switching latency; the arrival itself is what the
        lookahead barrier guarantees is still in this shard's future.
        """
        for arrival, _priority, _src, _seq, ingress, blob in sorted(messages):
            frame = decode_frame(blob)
            node = self.network.nodes[ingress]
            self.sim.schedule_transient_at(
                arrival + node.switch_latency, node.arrived, frame)
            self.stats.frames_in += 1

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, Any]:
        s = self.stats
        return {
            "frames_out": s.frames_out,
            "bytes_out": s.bytes_out,
            "frames_in": s.frames_in,
            "refused_multicast": s.refused_multicast,
            "refused_heartbeat": s.refused_heartbeat,
            "encode_errors": s.encode_errors,
        }
