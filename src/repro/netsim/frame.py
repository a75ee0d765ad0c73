"""The network-layer transmission unit.

A ``Frame`` is what traverses links and switch queues.  The transport system
(TKO) hands the network a frame per PDU (or per fragment, when the PDU
exceeds the path MTU).  The payload is opaque to the network — exactly the
separation the paper draws between the transport system and the underlying
network service.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib
from typing import Any, Optional, Sequence

_frame_ids = itertools.count(1)

# Priority classes for the network's priority-delivery service (Table 1's
# "Priority Delivery" column).  Lower numeric value is served first.
PRIO_CONTROL = 0   # out-of-band signalling (Figure 3's control path)
PRIO_HIGH = 1
PRIO_NORMAL = 2


class Frame:
    """One unit of network transmission.

    Attributes
    ----------
    src, dst:
        Host names.  For multicast, ``dst`` is a group address and
        ``multicast_dsts`` carries the resolved member list while the frame
        fans out through the tree.
    size:
        Total on-wire size in bytes (headers included) — drives
        serialization delay and bit-error probability.
    payload:
        Opaque transport-layer object (a :class:`repro.tko.message.TKOMessage`
        in normal operation).
    priority:
        Network service class; control frames preempt data in switch queues.
    corrupted:
        Set by a link when channel bit errors hit the frame.  The network
        still delivers it — detecting the damage is the *transport system's*
        job (or not, for configurations without a checksum).
    hops:
        Incremented at each switch; used by whitebox metrics.
    """

    __slots__ = (
        "id",
        "src",
        "dst",
        "size",
        "payload",
        "priority",
        "corrupted",
        "hops",
        "multicast_dsts",
        "created_at",
        "trace",
        "heartbeat",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        payload: Any = None,
        priority: int = PRIO_NORMAL,
        multicast_dsts: Optional[Sequence[str]] = None,
        created_at: float = 0.0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"frame size must be positive, got {size}")
        self.id = next(_frame_ids)
        self.src = src
        self.dst = dst
        self.size = int(size)
        self.payload = payload
        self.priority = priority
        self.corrupted = False
        self.hops = 0
        self.multicast_dsts = list(multicast_dsts) if multicast_dsts else None
        self.created_at = created_at
        self.trace: list[str] = []
        #: wire-level liveness beacon (carries no payload; real fabrics
        #: consume it before host delivery — see repro.transport.liveness)
        self.heartbeat = False

    def clone_for(self, dsts: Sequence[str]) -> "Frame":
        """Replicate the frame at a multicast branch point.

        The payload reference is shared (the network never copies payload
        bytes), mirroring hardware multicast where a switch replicates a
        frame onto several output ports.
        """
        f = Frame(
            self.src,
            self.dst,
            self.size,
            payload=self.payload,
            priority=self.priority,
            multicast_dsts=dsts,
            created_at=self.created_at,
        )
        f.corrupted = self.corrupted
        f.heartbeat = self.heartbeat
        f.hops = self.hops
        f.trace = list(self.trace)
        return f

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mc = f" mc={self.multicast_dsts}" if self.multicast_dsts else ""
        return f"<Frame#{self.id} {self.src}->{self.dst} {self.size}B{mc}>"


# ----------------------------------------------------------------------
# versioned wire codec
# ----------------------------------------------------------------------
# When frames leave the process (the UDP/loopback transport backends, the
# shard gateway), the in-memory Frame + PDU object graph is flattened to
# one datagram:
#
#   envelope   magic "ADPT" | version u8 | flags u8 | priority u8 | hops u8
#              | size u32 | created_at f64                      (20 bytes)
#   names      src (u8 len + utf8) | dst (u8 len + utf8)
#   [ PDU header (72 bytes, below) | sack tail | options tail | payload ]
#                                                        (envelope flag bit 0)
#   crc32 u32  (over every preceding byte)
#
# ``size`` is the *semantic* on-wire size (headers included) the sender's
# cost model charged — the decoded Frame reproduces it exactly, so the
# receiver's per-byte charges and the QoS auditor's byte accounting match
# the sender's, independent of the encoding's own overhead.
#
# The PDU header is the paper's "efficient control format" (§2.2(C)
# fn. 2) applied to the one place this codebase puts real bytes on a real
# wire: a fixed-size block whose fields sit at multiples of their own
# width from the block's start, packed and unpacked by one precompiled
# ``struct.Struct``.  Offsets are relative to the header's first byte:
#
#    0 ptype u8 (pinned code table)    1 pflags u8 (bit map below)
#    2 src_port u16     4 dst_port u16     6 reserved u16 (zero)
#    8 conn_id u64     16 seq u64         24 ack u64        32 msg_id u64
#   40 frag_index u32  44 frag_count u32  48 window u32
#   52 checksum u32    56 aux_size u32    60 payload length u32
#   64 timestamp f64
#
# Values that are ``None`` in memory (``ack``, ``checksum``) ride as zero
# with their presence bit clear.  Two optional tails follow, each present
# only when its pflags bit is set:
#
#   sack tail     count u16 | count x u64
#   options tail  length u32 | JSON object (utf8)
#
# Only ``options`` still rides as JSON: it is an open-ended dict (config
# piggyback, FEC group metadata) that is JSON by construction, and it is
# empty on the common DATA/ACK frame — which therefore never touches
# ``json`` at all.  The TKOMessage payload is written once — the same
# single copy the app boundary pays in-process.
#
# Integrity: the trailing CRC32 covers the whole datagram and is verified
# before any structure is read.  On a hostile path a single flipped byte
# in a length field or a host-name byte would otherwise silently re-frame
# the datagram — possibly decoding into a *different* src/dst.  With the
# checksum, any byte damage is refused as ``WireFormatError`` and the
# datagram is dropped (counted as a decode error), which upper layers
# experience as loss — exactly what a UDP checksum gives a real stack.
# This is distinct from the ``corrupted`` *flag*: that is the simulated
# network's semantic "delivered but damaged" marker, which rides a
# *valid* datagram so transport-level detection mechanisms can earn
# their keep.  Envelope flag bit 2 marks a heartbeat beacon (no PDU):
# fabrics consume heartbeat frames before host delivery; they exist only
# to prove the peer's wire is alive (see ``repro.transport.liveness``).
#
# Every peer of this codec is this codebase, so there is exactly one
# format: a datagram of any other version is refused by the version check.

#: 4-byte magic opening every encoded frame
WIRE_MAGIC = b"ADPT"
#: current wire format version (3 = fixed binary PDU header; 2 carried the
#: PDU header as JSON and is refused)
WIRE_VERSION = 3

_FIXED = struct.Struct("!4sBBBBId")
_PDU_HEADER = struct.Struct("!BBHH2xQQQQIIIIIId")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
#: envelope + two name-length bytes + CRC: the smallest valid datagram
_MIN_DATAGRAM = _FIXED.size + 2 + _U32.size

_FLAG_PDU = 0x01
_FLAG_CORRUPTED = 0x02
_FLAG_HEARTBEAT = 0x04

# PDU header flag byte
_P_MESSAGE = 0x01         # a payload follows (possibly zero-length)
_P_COMPACT = 0x02
_P_ACK = 0x04             # clear: ack is None
_P_CHECKSUM = 0x08        # clear: checksum is None
_P_PLACEMENT_SHIFT = 4    # bits 4-5 index _PLACEMENTS; 3 is refused
_P_SACK = 0x40
_P_OPTIONS = 0x80

_PLACEMENTS = (None, "header", "trailer")

#: ``PduType.value`` -> wire code.  Pinned by hand: codes are part of the
#: format and must survive reordering or renaming of the enum's members.
#: 0 is never assigned, so a zeroed header cannot pass for a PDU.
PDU_TYPE_CODES = {
    "data": 1,
    "ack": 2,
    "nack": 3,
    "parity": 4,
    "syn": 5,
    "syn-ack": 6,
    "confirm": 7,
    "fin": 8,
    "fin-ack": 9,
    "config": 10,
    "config-ack": 11,
    "probe": 12,
    "probe-reply": 13,
}

#: at most this many (src, dst) pairs keep their encoded name prefix
_NAME_CACHE_LIMIT = 4096
_name_prefixes: dict = {}

# repro.tko imports this module while it initialises, so its classes are
# looked up on the first encode/decode instead of at import
_PDU: Any = None
_TKOMessage: Any = None
_code_of_type: dict = {}
_type_of_code: dict = {}


class WireFormatError(ValueError):
    """Raised on any malformed, truncated, or wrong-version datagram."""


def _bind_tko() -> None:
    global _PDU, _TKOMessage
    from repro.tko.message import TKOMessage
    from repro.tko.pdu import PDU, PduType

    for ptype in PduType:
        code = PDU_TYPE_CODES[ptype.value]  # KeyError: give the new type a code
        _code_of_type[ptype] = code
        _type_of_code[code] = ptype
    _TKOMessage = TKOMessage
    _PDU = PDU


def _name_prefix(src: str, dst: str) -> bytes:
    """``src`` and ``dst`` as they ride the wire, encoded once per pair."""
    try:
        s, d = src.encode(), dst.encode()
    except UnicodeEncodeError as exc:
        raise WireFormatError(f"unencodable host name: {exc}") from exc
    if len(s) > 255 or len(d) > 255:
        raise WireFormatError("host names longer than 255 bytes")
    prefix = bytes((len(s),)) + s + bytes((len(d),)) + d
    if len(_name_prefixes) >= _NAME_CACHE_LIMIT:
        _name_prefixes.clear()
    _name_prefixes[src, dst] = prefix
    return prefix


def encode_frame_into(frame: "Frame", buf: bytearray) -> memoryview:
    """Serialize one frame into a reusable staging buffer.

    The bytes-plane encode path: every piece — envelope, host names, PDU
    header, tails, payload segments, CRC — is written straight into
    ``buf`` (grown as needed, never shrunk), and the payload streams out
    of the message's ``memoryview`` segments via
    :meth:`~repro.tko.message.TKOMessage.write_into`, so a multi-segment
    slab-backed message crosses the codec with exactly one payload copy
    and zero intermediate ``bytes`` objects.  Returns a ``memoryview`` of
    the encoded datagram *inside* ``buf`` — valid only until the next
    encode into the same buffer; substrates that hand datagrams to
    asynchronous machinery must snapshot (``bytes(view)``) first.

    Multicast frames are refused: group fan-out happens inside the
    simulated network; a real substrate sends one unicast frame per
    member (raising here keeps that invariant loud).  A field that does
    not fit its wire width is refused too, never truncated.
    """
    if _PDU is None:
        _bind_tko()
    if frame.multicast_dsts is not None:
        raise WireFormatError("multicast frames are not wire-encodable")
    names = _name_prefixes.get((frame.src, frame.dst))
    if names is None:
        names = _name_prefix(frame.src, frame.dst)
    flags = 0
    if frame.corrupted:
        flags |= _FLAG_CORRUPTED
    if frame.heartbeat:
        flags |= _FLAG_HEARTBEAT
    pdu = frame.payload
    is_pdu = isinstance(pdu, _PDU)
    pdu_off = _FIXED.size + len(names)
    off = pdu_off
    if is_pdu:
        flags |= _FLAG_PDU
        pflags = 0
        message = pdu.message
        payload_len = 0
        if message is not None:
            pflags |= _P_MESSAGE
            payload_len = message.data_length
        if pdu.compact:
            pflags |= _P_COMPACT
        ack = pdu.ack
        if ack is None:
            ack = 0
        else:
            pflags |= _P_ACK
        checksum = pdu.checksum
        if checksum is None:
            checksum = 0
        else:
            pflags |= _P_CHECKSUM
        placement = pdu.checksum_placement
        if placement is not None:
            try:
                pflags |= _PLACEMENTS.index(placement) << _P_PLACEMENT_SHIFT
            except ValueError:
                raise WireFormatError(
                    f"unknown checksum placement {placement!r}") from None
        tails = b""
        sack = pdu.sack
        if sack:
            pflags |= _P_SACK
            try:
                tails = struct.pack(f"!H{len(sack)}Q", len(sack), *sack)
            except struct.error as exc:
                raise WireFormatError(f"sack does not fit the wire: {exc}") from exc
        if pdu.options:
            pflags |= _P_OPTIONS
            try:
                options_b = json.dumps(pdu.options, separators=(",", ":")).encode()
            except (TypeError, ValueError) as exc:
                raise WireFormatError(f"unencodable PDU options: {exc}") from exc
            tails += _U32.pack(len(options_b)) + options_b
        payload_off = pdu_off + _PDU_HEADER.size + len(tails)
        off = payload_off + payload_len
    need = off + _U32.size
    if len(buf) < need:
        buf += bytes(need - len(buf))
    mv = memoryview(buf)
    try:
        _FIXED.pack_into(buf, 0, WIRE_MAGIC, WIRE_VERSION, flags,
                         frame.priority, min(frame.hops, 255), frame.size,
                         frame.created_at)
        if is_pdu:
            _PDU_HEADER.pack_into(
                buf, pdu_off, _code_of_type[pdu.ptype], pflags,
                pdu.src_port, pdu.dst_port, pdu.conn_id, pdu.seq, ack,
                pdu.msg_id, pdu.frag_index, pdu.frag_count, pdu.window,
                checksum, pdu.aux_size, payload_len, pdu.timestamp)
    except (struct.error, KeyError) as exc:
        raise WireFormatError(f"field does not fit the wire: {exc!r}") from exc
    buf[_FIXED.size:pdu_off] = names
    if is_pdu:
        buf[pdu_off + _PDU_HEADER.size:payload_off] = tails
        if message is not None:
            message.write_into(mv[payload_off:off])
    _U32.pack_into(buf, off, zlib.crc32(mv[:off]))
    return mv[:need]


def encode_frame(frame: "Frame") -> bytes:
    """Serialize one frame (and its PDU payload, if any) to bytes.

    Convenience wrapper over :func:`encode_frame_into` with a throwaway
    buffer; hot paths should hold a per-endpoint staging buffer instead.
    """
    return bytes(encode_frame_into(frame, bytearray()))


def decode_frame(data: bytes, arena: Optional[Any] = None) -> "Frame":
    """Rebuild a Frame (+ fresh, unpooled PDU) from :func:`encode_frame`
    output.  Raises :class:`WireFormatError` on anything malformed.

    With ``arena`` (a :class:`repro.tko.slab.SlabArena`), the payload
    bytes are stored straight from the datagram into slab storage and the
    rebuilt message carries the slab lease — released automatically at the
    message's terminal points.  Every check runs before the allocation,
    and the lease is released *here* should anything after it fail, so a
    hostile datagram can never leak a slab claim.
    """
    if _PDU is None:
        _bind_tko()
    if len(data) < _MIN_DATAGRAM:
        raise WireFormatError(f"datagram too short ({len(data)} bytes)")
    mv = memoryview(data)
    magic, version, flags, priority, hops, size, created_at = _FIXED.unpack_from(mv)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    # integrity before structure: a hostile path flipping one byte must
    # never re-frame the datagram into a different-looking (src, dst)
    end = len(data) - _U32.size
    if zlib.crc32(mv[:end]) != _U32.unpack_from(mv, end)[0]:
        raise WireFormatError("checksum mismatch (damaged datagram)")
    if size == 0:
        raise WireFormatError("frame size must be positive")
    # _MIN_DATAGRAM guarantees the src length byte; every later read is
    # checked against ``end``
    src_off = _FIXED.size + 1
    dst_off = src_off + mv[_FIXED.size] + 1
    if dst_off > end:
        raise WireFormatError("truncated datagram")
    off = dst_off + mv[dst_off - 1]
    if off > end:
        raise WireFormatError("truncated datagram")
    try:
        src = str(mv[src_off:dst_off - 1], "utf-8")
        dst = str(mv[dst_off:off], "utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"malformed host name: {exc}") from exc
    pdu = None
    if flags & _FLAG_PDU:
        if off + _PDU_HEADER.size > end:
            raise WireFormatError("truncated datagram")
        (code, pflags, src_port, dst_port, conn_id, seq, ack, msg_id,
         frag_index, frag_count, window, checksum, aux_size, payload_len,
         timestamp) = _PDU_HEADER.unpack_from(mv, off)
        off += _PDU_HEADER.size
        ptype = _type_of_code.get(code)
        if ptype is None:
            raise WireFormatError(f"unknown PDU type code {code}")
        placement_code = (pflags >> _P_PLACEMENT_SHIFT) & 3
        if placement_code == len(_PLACEMENTS):
            raise WireFormatError("unknown checksum placement code")
        sack = None
        if pflags & _P_SACK:
            if off + _U16.size > end:
                raise WireFormatError("truncated datagram")
            count = _U16.unpack_from(mv, off)[0]
            off += _U16.size
            if off + 8 * count > end:
                raise WireFormatError("sack count overruns the datagram")
            sack = struct.unpack_from(f"!{count}Q", mv, off) or None
            off += 8 * count
        options = None
        if pflags & _P_OPTIONS:
            if off + _U32.size > end:
                raise WireFormatError("truncated datagram")
            options_end = off + _U32.size + _U32.unpack_from(mv, off)[0]
            if options_end > end:
                raise WireFormatError("truncated datagram")
            try:
                options = json.loads(str(mv[off + _U32.size:options_end], "utf-8"))
            except (ValueError, RecursionError) as exc:
                raise WireFormatError(f"malformed PDU options: {exc}") from exc
            if not isinstance(options, dict):
                raise WireFormatError("PDU options are not an object")
            off = options_end
        if payload_len and not pflags & _P_MESSAGE:
            raise WireFormatError("payload bytes on a PDU without a message")
        if off + payload_len > end:
            raise WireFormatError("truncated datagram")
    else:
        payload_len = 0
    if off + payload_len != end:
        raise WireFormatError(f"{end - off - payload_len} trailing bytes")
    message = None
    try:
        if flags & _FLAG_PDU:
            if pflags & _P_MESSAGE:
                if arena is not None:
                    # one copy, datagram -> slab, no intermediate bytes
                    lease = arena.store(mv[off:end])
                    message = _TKOMessage(lease.view)
                    message.attach_lease(lease)
                else:
                    message = _TKOMessage(bytes(mv[off:end]))
            pdu = _PDU(
                ptype,
                conn_id,
                src_port=src_port,
                dst_port=dst_port,
                seq=seq,
                ack=ack if pflags & _P_ACK else None,
                sack=sack,
                msg_id=msg_id,
                frag_index=frag_index,
                frag_count=frag_count,
                window=window,
                timestamp=timestamp,
                options=options,
                message=message,
                compact=bool(pflags & _P_COMPACT),
            )
            pdu.checksum = checksum if pflags & _P_CHECKSUM else None
            pdu.checksum_placement = _PLACEMENTS[placement_code]
            pdu.aux_size = aux_size
        frame = Frame(src, dst, size, payload=pdu, priority=priority,
                      created_at=created_at)
    except BaseException:
        if message is not None:
            message.release_payload()
        raise
    frame.corrupted = bool(flags & _FLAG_CORRUPTED)
    frame.heartbeat = bool(flags & _FLAG_HEARTBEAT)
    frame.hops = hops
    return frame
