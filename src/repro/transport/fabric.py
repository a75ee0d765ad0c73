"""The network surface real substrates present to the stack above.

``Host``, MANTTS signalling, the path monitor, and TKO sessions all talk
to "the network" through one informal surface (attach/detach, ``send``,
group membership, route and path characteristics, a shared RNG).  In
simulation that surface is :class:`repro.netsim.network.Network`;
:class:`RealFabric` is the same surface backed by a real substrate —
in-process loopback queues or UDP sockets — so the entire protocol stack
runs unmodified on top.

Path characteristics on a real substrate are *static estimates* from one
:class:`VirtualLink` (a real path's queues are invisible to us); MANTTS
admission and the monitor's congestion math read them exactly as they
read simulated links.  Frames leave through the versioned wire codec
(:func:`repro.netsim.frame.encode_frame`), and the fabric consumes the
wire's reference on pooled PDUs — on success *and on every failure
path* — mirroring the simulated receive path's release discipline so
``PDU_POOL`` never leaks shells across a real send.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.netsim.frame import Frame, WireFormatError, encode_frame_into
from repro.sim.rng import RngStreams
from repro.tko.pdu import PDU
from repro.tko.slab import SlabArena
from repro.unites.obs import TELEMETRY


class _LinkStats:
    """The two counters the monitor's loss math reads."""

    __slots__ = ("enqueued", "dropped_overflow")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped_overflow = 0


class VirtualLink:
    """A static link model standing in for a real path's one hop.

    Real substrates cannot observe their queues, so the occupancy reads
    as empty and the drop counters stay zero — the monitor sees an
    unloaded path, which is the honest prior for a local socket.
    """

    def __init__(self, bandwidth_bps: float = 1e9, delay: float = 50e-6,
                 mtu: int = 65507, queue_limit: int = 64,
                 ber: float = 0.0) -> None:
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay = float(delay)
        self.mtu = int(mtu)
        self.queue_limit = int(queue_limit)
        self.ber = float(ber)
        self.queue_len = 0
        self.stats = _LinkStats()

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps


class RealFabric:
    """Network-surface base for the loopback and UDP substrates.

    Subclasses implement :meth:`_transmit` (move one encoded datagram to
    the named destination) and may override :meth:`_local_names`.
    Delivery re-enters the stack via the destination driver's inbox, so
    protocol code always runs on its own world's thread.
    """

    #: metrics label identifying the substrate ("loopback" / "udp")
    kind = "real"

    def __init__(self, rng: Optional[RngStreams] = None,
                 link: Optional[VirtualLink] = None) -> None:
        self._handlers: Dict[str, Callable[[Frame], None]] = {}
        self.groups: Dict[str, Set[str]] = {}
        self.rng = rng if rng is not None else RngStreams(0)
        self.link = link if link is not None else VirtualLink()
        self.topology_version = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_delivered = 0
        self.send_errors = 0
        #: optional :class:`repro.transport.liveness.PeerLiveness`; when
        #: set, every delivered frame refreshes the sender's lease and
        #: heartbeat beacons are consumed before host delivery
        self.liveness = None
        #: reusable encode staging buffer — every outgoing datagram is
        #: written in place by :func:`encode_frame_into`, then snapshotted
        #: once (substrates hold datagrams asynchronously)
        self._wire_buf = bytearray(2048)
        #: slab arena for decoded payload storage on this endpoint's
        #: protocol thread (see repro.tko.slab); substrates that decode on
        #: a different thread must pass ``arena=None`` to the codec
        self.arena = SlabArena()

    # ------------------------------------------------------------------
    # host attachment (Host.__init__ / teardown call these)
    # ------------------------------------------------------------------
    def attach_host(self, name: str, deliver: Callable[[Frame], None]) -> None:
        self._handlers[name] = deliver

    def detach_host(self, name: str) -> None:
        self._handlers.pop(name, None)

    # ------------------------------------------------------------------
    # group membership (MANTTS multicast signalling bookkeeping)
    # ------------------------------------------------------------------
    def join_group(self, group: str, host: str) -> None:
        self.groups.setdefault(group, set()).add(host)

    def leave_group(self, group: str, host: str) -> None:
        members = self.groups.get(group)
        if members is not None:
            members.discard(host)

    def group_members(self, group: str) -> set:
        return set(self.groups.get(group, set()))

    # ------------------------------------------------------------------
    # path characteristics — static VirtualLink estimates
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Optional[List[str]]:
        if self.liveness is not None and self.liveness.is_dead(dst):
            return None  # the monitor reads "no route" as unreachable
        return [src, dst]

    def path_links(self, src: str, dst: str) -> List[VirtualLink]:
        if self.liveness is not None and self.liveness.is_dead(dst):
            return []
        return [self.link]

    def path_mtu(self, src: str, dst: str) -> Optional[int]:
        return self.link.mtu

    def path_propagation_delay(self, src: str, dst: str) -> Optional[float]:
        return self.link.delay

    def path_bottleneck_bps(self, src: str, dst: str) -> Optional[float]:
        return self.link.bandwidth_bps

    def path_queue_occupancy(self, src: str, dst: str) -> float:
        return 0.0

    def path_ber(self, src: str, dst: str) -> float:
        return self.link.ber

    def nominal_rtt(self, src: str, dst: str, size: int = 1500) -> Optional[float]:
        one_way = self.link.delay + self.link.serialization_time(size)
        return 2.0 * one_way

    # ------------------------------------------------------------------
    # the send path: resolve → encode → consume wire ref → transmit
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Carry one frame to its destination(s) over the real substrate.

        Group destinations fan out as independent unicast copies (real
        substrates have no delivery tree).  The pooled wire reference is
        consumed here no matter what happens — encode error, unknown
        destination, or transmit failure — because past this point no
        receive path in this process will ever release it.

        The path splits into :meth:`_encode_for_send` (resolve + encode
        + consume the wire reference) and :meth:`_dispatch` (move one
        datagram, count it) so an impairment wrapper can interpose on
        delivery without re-implementing pool discipline (see
        :class:`repro.transport.impair.ImpairedFabric`).
        """
        encoded = self._encode_for_send(frame)
        if encoded is None:
            return
        data, dsts = encoded
        for dst in dsts:
            self._dispatch(data, dst, frame)

    def _encode_for_send(
            self, frame: Frame) -> Optional[Tuple[bytes, List[str]]]:
        """Resolve destinations and encode ``frame``, consuming the
        pooled wire reference.  Returns ``None`` on encode failure."""
        dsts = [frame.dst]
        members = self.groups.get(frame.dst)
        if members is not None:
            dsts = sorted(m for m in members if m != frame.src)
        pdu = frame.payload if isinstance(frame.payload, PDU) else None
        try:
            # stage into the reusable buffer (payload segments stream in
            # with one copy), snapshot once for the async substrate
            data = bytes(encode_frame_into(frame, self._wire_buf))
        except WireFormatError:
            self.send_errors += 1
            self._count("transport_send_errors_total", reason="encode")
            return None
        finally:
            if pdu is not None:
                pdu.release()  # the wire's reference, consumed either way
        return data, dsts

    def _dispatch(self, data: bytes, dst: str, frame: Frame) -> None:
        """Move one encoded datagram to ``dst``, counting the attempt."""
        try:
            self._transmit(data, dst, frame)
        except (KeyError, OSError):
            self.send_errors += 1
            self._count("transport_send_errors_total", reason="transmit")
            return
        self.frames_sent += 1
        self.bytes_sent += len(data)
        self._count("transport_frames_sent_total")
        self._count("transport_bytes_sent_total", by=len(data))

    def deliver(self, frame: Frame) -> None:
        """Hand a decoded frame to the attached host (driver thread)."""
        if self.liveness is not None:
            self.liveness.note_heard(frame.src)
            if frame.heartbeat:
                self._count("transport_liveness_heartbeats_rx_total")
                return  # beacons prove the wire; they never reach hosts
        elif frame.heartbeat:
            return
        handler = self._handlers.get(frame.dst)
        if handler is None:
            self._count("transport_frames_unrouted_total")
            if isinstance(frame.payload, PDU):
                # an undeliverable decoded frame surrenders its slab claim
                frame.payload.discard()
            return
        self.frames_delivered += 1
        self._count("transport_frames_delivered_total")
        handler(frame)

    def _transmit(self, data: bytes, dst: str, frame: Frame) -> None:
        raise NotImplementedError

    def _count(self, name: str, by: int = 1, **labels) -> None:
        if TELEMETRY.enabled:
            labels.setdefault("backend", self.kind)
            TELEMETRY.metrics.counter(
                name, labels=labels,
                help="transport substrate counters (real backends)",
            ).inc(by)
