"""TKO_Protocol: protocol objects, the protocol graph, and demultiplexing.

A ``TKOProtocol`` is the per-host entry point of the transport system: it
receives frames from the host NIC, demultiplexes PDUs to the owning
:class:`~repro.tko.session.TKOSession` via the port table, and creates
passive-side sessions for listeners (either on an explicit SYN or on the
first implicitly-configured DATA PDU — §4.1.1's two negotiation styles).

Protocol graph operations (§4.2.1: "insert, delete, and/or alter protocol
objects") are provided by :class:`PassthroughLayer`: extra graph layers
each impose their per-PDU cost and, in *naive* buffering mode, an extra
payload copy at the layer boundary — the discipline TKO_Message's lazy
sharing eliminates (experiment E8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.host.nic import Host
from repro.netsim.frame import Frame
from repro.tko.config import SessionConfig
from repro.tko.pdu import PDU, PduType
from repro.tko.session import TKOSession
from repro.tko.synthesizer import TKOSynthesizer
from repro.unites.obs.audit import AUDIT as _AUDIT

#: instructions to demultiplex one arriving PDU to its session
DEMUX_COST = 120.0


@dataclass
class Listener:
    """A passive-open registration on a local port."""

    port: int
    cfg_factory: Callable[[PDU, Frame], SessionConfig]
    on_session: Callable[[TKOSession], None]


class TKOProtocol:
    """The ADAPTIVE transport protocol object on one host."""

    def __init__(self, host: Host, synthesizer: Optional[TKOSynthesizer] = None) -> None:
        self.host = host
        self.synthesizer = synthesizer if synthesizer is not None else TKOSynthesizer()
        #: connection ids are per-protocol: they name per-session rng
        #: streams, so they must not depend on how many sessions other
        #: systems in the same process have created (run-to-run identity)
        self._conn_ids = itertools.count(1)
        self.sessions: Dict[int, TKOSession] = {}
        self._listeners: Dict[int, Listener] = {}
        self.frames_demuxed = 0
        self.frames_unclaimed = 0
        #: protocol graph layers below this protocol (outermost first)
        self.layers: List["PassthroughLayer"] = []
        host.register_protocol_entry(self.handle_frame)

    # ------------------------------------------------------------------
    # session creation
    # ------------------------------------------------------------------
    def create_session(
        self,
        cfg: SessionConfig,
        remote_host: str,
        remote_port: int,
        local_port: Optional[int] = None,
        group: Optional[str] = None,
        members: Optional[list] = None,
        **callbacks,
    ) -> TKOSession:
        """Active open: synthesize, bind ports, return the session.

        Callers then invoke :meth:`TKOSession.connect`; for implicit
        configurations that is immediate and the first ``send`` may follow
        in the same event.
        """
        port = local_port if local_port is not None else self.host.ports.ephemeral_port()
        conn_id = next(self._conn_ids)
        session = self.synthesizer.instantiate(
            self.host,
            cfg,
            conn_id,
            port,
            remote_host,
            remote_port,
            group=group,
            members=members,
            protocol=self,
            **callbacks,
        )
        if cfg.delivery == "multicast":
            # member ACKs arrive from many hosts: a wildcard bind catches them
            self.host.ports.listen(port, session)
        else:
            self.host.ports.connect(port, remote_host, remote_port, session)
        self.sessions[conn_id] = session
        if _AUDIT.enabled:
            _AUDIT.session_created(session)
        return session

    def listen(
        self,
        port: int,
        cfg_factory: Callable[[PDU, Frame], SessionConfig],
        on_session: Callable[[TKOSession], None],
    ) -> None:
        """Register a passive open.

        ``cfg_factory`` maps the opening PDU (SYN options or the implicit
        config piggybacked on the first DATA) to the local configuration —
        this is where MANTTS' responder-side Stage II hooks in.
        """
        listener = Listener(port, cfg_factory, on_session)
        self._listeners[port] = listener
        self.host.ports.listen(port, listener)

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)
        self.host.ports.release(port)

    def unlisten_all(self) -> None:
        """Drop every passive-open registration (host teardown)."""
        for port in list(self._listeners):
            self.unlisten(port)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame) -> None:
        """NIC entry: walk the graph upward, demultiplex to the owner."""
        pdu = frame.payload
        if not isinstance(pdu, PDU):
            self.frames_unclaimed += 1
            return
        cost = DEMUX_COST + self._ingress_cost(frame)
        self.host.cpu.submit(cost, self._dispatch, pdu, frame)

    def _dispatch(self, pdu: PDU, frame: Frame) -> None:
        # Owner lookup happens *after* the demux CPU charge: two arrivals
        # racing a passive open must both see any binding the first created.
        owner = self.host.ports.demux(pdu.dst_port, frame.src, pdu.src_port)
        if isinstance(owner, TKOSession):
            self.frames_demuxed += 1
            owner.handle_frame(pdu, frame)
            return
        if isinstance(owner, Listener):
            self._accept(owner, pdu, frame)
            return
        self._unclaimed(pdu, frame)

    def _unclaimed(self, pdu: PDU, frame: Frame) -> None:
        """Count and retire a PDU no session or listener will take."""
        self.frames_unclaimed += 1
        # a simulated multicast PDU is unpooled and shares its message
        # with the copies other members still hold: not ours to release
        if frame.multicast_dsts is None:
            pdu.discard()

    def _accept(self, listener: Listener, pdu: PDU, frame: Frame) -> None:
        """Passive session creation on SYN, implicitly-configured DATA, or
        a network-monitor PROBE (which must be answerable cold)."""
        if pdu.ptype not in (PduType.SYN, PduType.DATA, PduType.PROBE):
            self._unclaimed(pdu, frame)
            return
        cfg = listener.cfg_factory(pdu, frame)
        conn_id = next(self._conn_ids)
        session = self.synthesizer.instantiate(
            self.host,
            cfg,
            conn_id,
            listener.port,
            frame.src,
            pdu.src_port,
            protocol=self,
        )
        self.host.ports.connect(listener.port, frame.src, pdu.src_port, session)
        self.sessions[conn_id] = session
        if _AUDIT.enabled:
            # a QoS auditor watching this demux tuple attaches its
            # delivery-side observer before the opening PDU is processed
            _AUDIT.session_created(session)
        self.frames_demuxed += 1
        session.context.connection.passive_open(pdu)
        if pdu.ptype is PduType.DATA:
            # Implicitly-opened sessions sync their receive window to the
            # opening PDU's sequence number: a receiver that joins an
            # in-progress stream (late multicast member) starts there
            # rather than waiting forever for sequence 0.
            session.recv_window.rcv_nxt = pdu.seq
        listener.on_session(session)
        if pdu.ptype in (PduType.DATA, PduType.PROBE):
            # the opening PDU carries data (or wants an echo): process it
            # as a normal arrival, or as a demux miss if refused
            if session.closed:
                self._unclaimed(pdu, frame)
            else:
                session.handle_frame(pdu, frame)

    # ------------------------------------------------------------------
    def session_closed(self, session: TKOSession) -> None:
        """Callback from sessions on teardown: release demux bindings."""
        self.sessions.pop(session.conn_id, None)
        if session.cfg.delivery == "multicast":
            if session.local_port not in self._listeners:
                self.host.ports.release(session.local_port)
        else:
            self.host.ports.release(
                session.local_port, session.remote_host, session.remote_port
            )

    # ------------------------------------------------------------------
    # protocol graph operations
    # ------------------------------------------------------------------
    def insert_layer(self, layer: "PassthroughLayer") -> None:
        """Add a graph layer below the transport (outermost position).

        Layers are live in the data path: every outgoing frame is
        encapsulated through them (header bytes on the wire, per-layer CPU
        cost, and — for non-zero-copy layers — a payload copy per
        boundary), and every incoming frame is decapsulated.  This is the
        §4.2.1 protocol-graph "insert/delete protocol objects" operation.
        """
        self.layers.append(layer)

    def remove_layer(self, layer: "PassthroughLayer") -> None:
        self.layers.remove(layer)

    def egress(self, frame: Frame, extra_instructions: float = 0.0) -> None:
        """Send-side graph traversal, then hand the frame to the NIC."""
        cost = extra_instructions
        for layer in self.layers:
            frame.size += layer.header_bytes
            cost += layer.instr_cost(self.host.cpu.costs, frame, self.host.copy_meter)
        self.host.transmit(frame, extra_instructions=cost)

    def _ingress_cost(self, frame: Frame) -> float:
        """Receive-side graph traversal cost (headers stripped innermost-last)."""
        cost = 0.0
        for layer in reversed(self.layers):
            cost += layer.instr_cost(self.host.cpu.costs, frame, self.host.copy_meter)
        return cost


class PassthroughLayer:
    """A generic protocol-graph layer.

    In ``zero_copy`` mode it pushes/pops a header on the TKO message
    (O(1), no payload traffic); in naive mode it eagerly copies the
    payload at the boundary, the classic layered-implementation overhead
    (§2.1(A): "poorly layered architectures").

    When installed in a :class:`TKOProtocol`'s graph the layer is live in
    the data path: :meth:`instr_cost` is charged per frame in each
    direction (fixed bookkeeping plus, for naive layers, a per-byte copy
    recorded on the host's copy meter).
    """

    #: fixed instructions per frame per direction
    FIXED_COST = 200.0

    def __init__(self, name: str, header_bytes: int = 8, zero_copy: bool = True) -> None:
        self.name = name
        self.header_bytes = header_bytes
        self.zero_copy = zero_copy
        self.pdus_seen = 0

    def instr_cost(self, costs, frame: Frame, meter) -> float:
        """Per-frame traversal cost; naive layers also copy the payload."""
        self.pdus_seen += 1
        total = self.FIXED_COST
        if not self.zero_copy:
            payload = frame.payload
            nbytes = payload.data_size if isinstance(payload, PDU) else frame.size
            total += costs.per_byte_copy * nbytes
            meter.record(nbytes)
        return total

    def encapsulate(self, message):
        from repro.tko.message import Header

        self.pdus_seen += 1
        if not self.zero_copy:
            message = message.copy_through()
        message.push(Header(self.name, self.header_bytes))
        return message

    def decapsulate(self, message):
        self.pdus_seen += 1
        if not self.zero_copy:
            message = message.copy_through()
        message.pop()
        return message
