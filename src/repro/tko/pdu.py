"""Transport protocol data units.

A ``PDU`` is the transport header + user data carried inside one network
frame.  The header layout is configurable along the axis the paper calls
"efficient control formats" (§2.2(C) fn. 2):

* **compact** — fixed-size, word-aligned fields: larger minimum size but
  cheap to parse (``header_parse_aligned``), and the checksum may live in
  the *trailer* so it can be computed while earlier bytes are already being
  clocked onto the wire;
* **legacy** — TCP-like variable options, unaligned fields: smaller for
  some packets but parsed at ``header_parse_unaligned`` cost, checksum in
  the header (precluding transmit/checksum overlap).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional

from repro.tko.message import Header, TKOMessage

_pdu_ids = itertools.count(1)

#: application message ids (the ``msg_id`` header field): one process-wide
#: sequence, drawn once per ``send`` whichever route serves it
_msg_counter = itertools.count(1)


class PduType(enum.Enum):
    """Transport PDU types; control types ride the out-of-band channel."""

    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    PARITY = "parity"        # FEC repair unit
    SYN = "syn"              # explicit connection request (carries config)
    SYN_ACK = "syn-ack"
    CONFIRM = "confirm"      # third leg of 3-way handshake
    FIN = "fin"
    FIN_ACK = "fin-ack"
    CONFIG = "config"        # reconfiguration / renegotiation signalling
    CONFIG_ACK = "config-ack"
    PROBE = "probe"          # network-monitor RTT probe
    PROBE_REPLY = "probe-reply"


#: PDU types processed on Figure 3's out-of-band control path.  FIN and
#: FIN-ACK are deliberately *not* here: teardown must stay ordered behind
#: the session's in-flight data (a priority-class FIN would overtake the
#: final data/parity PDUs in switch queues and close the peer early).
CONTROL_TYPES = frozenset(
    {
        PduType.SYN,
        PduType.SYN_ACK,
        PduType.CONFIRM,
        PduType.CONFIG,
        PduType.CONFIG_ACK,
        PduType.PROBE,
        PduType.PROBE_REPLY,
    }
)

#: word-aligned fixed header (compact format), bytes
COMPACT_HEADER_SIZE = 24
#: legacy variable header: base + options, bytes
LEGACY_HEADER_BASE = 20
LEGACY_OPTION_SIZE = 4
#: explicit checksum field appended as a trailer, bytes
TRAILER_CHECKSUM_SIZE = 4


class PDU:
    """One transport protocol data unit."""

    __slots__ = (
        "id",
        "ptype",
        "conn_id",
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "sack",
        "msg_id",
        "frag_index",
        "frag_count",
        "window",
        "timestamp",
        "options",
        "message",
        "compact",
        "checksum",
        "checksum_placement",
        "aux_size",
        "pooled",
        "_refs",
    )

    def __init__(
        self,
        ptype: PduType,
        conn_id: int,
        src_port: int = 0,
        dst_port: int = 0,
        seq: int = 0,
        ack: Optional[int] = None,
        sack: Optional[tuple] = None,
        msg_id: int = 0,
        frag_index: int = 0,
        frag_count: int = 1,
        window: int = 0,
        timestamp: float = 0.0,
        options: Optional[Dict[str, Any]] = None,
        message: Optional[TKOMessage] = None,
        compact: bool = True,
    ) -> None:
        self.id = next(_pdu_ids)
        self.ptype = ptype
        self.conn_id = conn_id
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.sack = sack
        self.msg_id = msg_id
        self.frag_index = frag_index
        self.frag_count = frag_count
        self.window = window
        self.timestamp = timestamp
        self.options = options or {}
        self.message = message
        self.compact = compact
        self.checksum: Optional[int] = None
        self.checksum_placement: Optional[str] = None
        #: extra on-wire header bytes (e.g. FEC group metadata on PARITY)
        self.aux_size = 0
        #: free-list bookkeeping; both fields are inert on unpooled PDUs
        self.pooled = False
        self._refs = 1

    # ------------------------------------------------------------------
    @property
    def header_size(self) -> int:
        """On-wire transport header bytes for this PDU."""
        if self.compact:
            size = COMPACT_HEADER_SIZE
        else:
            size = LEGACY_HEADER_BASE + LEGACY_OPTION_SIZE * len(self.options)
            if self.sack:
                size += LEGACY_OPTION_SIZE * len(self.sack)
        if self.checksum_placement == "trailer":
            size += TRAILER_CHECKSUM_SIZE
        return size + self.aux_size

    @property
    def data_size(self) -> int:
        return self.message.data_length if self.message is not None else 0

    @property
    def wire_size(self) -> int:
        """Total bytes this PDU occupies inside a frame."""
        return self.header_size + self.data_size

    @property
    def is_control(self) -> bool:
        return self.ptype in CONTROL_TYPES

    # ------------------------------------------------------------------
    # free-list reference counting — no-ops unless this PDU came from the
    # pool, so shared code paths can call them unconditionally
    # ------------------------------------------------------------------
    def retain(self) -> None:
        if self.pooled:
            self._refs += 1

    def release(self) -> None:
        if self.pooled:
            self._refs -= 1
            if self._refs <= 0:
                PDU_POOL.recycle(self)

    def discard(self) -> None:
        """Terminal point for a *received* PDU that will not be delivered
        (rejected, unclaimed, or its payload already copied out): drop the
        wire's reference on a pooled shell, or — on the unpooled PDU a
        real substrate decoded — the slab claim its message holds."""
        if self.pooled:
            self.release()
        elif self.message is not None:
            self.message.release_payload()

    # ------------------------------------------------------------------
    def as_header(self) -> Header:
        """Render as a :class:`~repro.tko.message.Header` for the message."""
        return Header(
            name=f"tp-{self.ptype.value}",
            size=self.header_size,
            fields={"conn": self.conn_id, "seq": self.seq},
            aligned=self.compact,
        )

    def retransmit_clone(self) -> "PDU":
        """A fresh PDU carrying the same payload/identity for retransmission.

        The message is cloned lazily (zero payload copy) — the point of the
        TKO buffer design is that holding a retransmission queue is cheap.
        """
        p = PDU(
            self.ptype,
            self.conn_id,
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=self.seq,
            ack=self.ack,
            sack=self.sack,
            msg_id=self.msg_id,
            frag_index=self.frag_index,
            frag_count=self.frag_count,
            window=self.window,
            timestamp=self.timestamp,
            options=dict(self.options),
            message=self.message.clone() if self.message is not None else None,
            compact=self.compact,
        )
        p.checksum_placement = self.checksum_placement
        return p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PDU#{self.id} {self.ptype.value} conn={self.conn_id} seq={self.seq}"
            f" ack={self.ack} {self.wire_size}B>"
        )


class PduPool:
    """A small free list of PDU shells (the §4.2.2 "lightweight" move:
    stop paying allocator + field-init cost on every DATA/ACK send).

    Recycled PDUs get a *fresh* id on re-acquisition, so id-keyed maps
    (receive buffers) can never confuse two incarnations of one shell.
    A premature ``release`` is the only hazard; leaks merely fall back to
    the garbage collector.
    """

    def __init__(self, max_free: int = 256) -> None:
        self._free: list = []
        self.max_free = max_free
        self.acquired = 0
        self.reused = 0
        #: shells whose last reference was dropped (leak check: a quiesced
        #: world must satisfy ``recycled == acquired - live holders``)
        self.recycled = 0

    def acquire(
        self,
        ptype: PduType,
        conn_id: int,
        src_port: int = 0,
        dst_port: int = 0,
        compact: bool = True,
    ) -> PDU:
        self.acquired += 1
        if self._free:
            self.reused += 1
            pdu = self._free.pop()
            pdu.id = next(_pdu_ids)
            pdu.ptype = ptype
            pdu.conn_id = conn_id
            pdu.src_port = src_port
            pdu.dst_port = dst_port
            pdu.seq = 0
            pdu.ack = None
            pdu.sack = None
            pdu.msg_id = 0
            pdu.frag_index = 0
            pdu.frag_count = 1
            pdu.window = 0
            pdu.timestamp = 0.0
            pdu.options = {}
            pdu.message = None
            pdu.compact = compact
            pdu.checksum = None
            pdu.checksum_placement = None
            pdu.aux_size = 0
        else:
            pdu = PDU(ptype, conn_id, src_port=src_port, dst_port=dst_port, compact=compact)
        pdu.pooled = True
        pdu._refs = 1
        return pdu

    def recycle(self, pdu: PDU) -> None:
        self.recycled += 1
        # un-flag first: any stray release() on a stale reference is inert
        pdu.pooled = False
        msg = pdu.message
        if msg is not None:
            # terminal point for slab-backed payloads: the shell's claim on
            # its slab region dies with the shell (clones retained their own)
            msg.release_payload()
        pdu.message = None
        pdu.options = {}
        if len(self._free) < self.max_free:
            self._free.append(pdu)

    def __len__(self) -> int:
        return len(self._free)


#: process-wide pool; sessions opt in per-PDU via ``TKOSession.make_pdu``
PDU_POOL = PduPool()
