"""Error detection mechanisms (the detection third of Figure 5's
``Reliability_Management`` composite).

Placement matters as much as algorithm (paper §2.2(C) fn. 2): with the
check value in the *trailer*, the sender can compute it while earlier bytes
are already being clocked out, so the per-byte cost leaves the transmission
critical path (modelled by ``overlaps_tx``); with the check in the
*header* (TCP/TP4 layout), transmission cannot start until the whole PDU
has been summed.

Detection strength is modelled honestly: the 16-bit Internet checksum
misses a corrupted PDU with probability 2^-16; CRC-32 is treated as
never missing at simulated volumes; ``none`` delivers damaged payloads to
the application — the right choice only when the application is loss-/
error-tolerant (Table 1's voice row).
"""

from __future__ import annotations

import zlib

from repro.mechanisms.base import ErrorDetection, StageSpec
from repro.tko.pdu import PDU

#: miss probability of a 16-bit ones-complement checksum
CHECKSUM16_MISS_P = 1.0 / 65536.0


class NoDetection(ErrorDetection):
    """Accept everything — corrupted payloads reach the application."""

    __slots__ = ()

    name = "none"
    SEND_COST = 0.0
    RECV_COST = 0.0
    DISPATCH_SEND = 0
    DISPATCH_RECV = 1
    overlaps_tx = True  # nothing to compute at all

    def attach(self, pdu: PDU) -> None:
        pdu.checksum = None
        pdu.checksum_placement = None

    def verify(self, pdu: PDU, corrupted: bool) -> bool:
        if corrupted:
            self.session.stats.corrupted_delivered += 1
        return True


class _ChecksumBase(ErrorDetection):
    """Shared placement/cost plumbing for real detection schemes."""

    __slots__ = ("placement",)

    #: instructions per payload byte (software sum loop)
    PER_BYTE = 1.0
    #: residual miss probability given a corrupted PDU
    MISS_P = 0.0

    def __init__(self, placement: str = "trailer") -> None:
        super().__init__()
        if placement not in ("header", "trailer"):
            raise ValueError(f"bad checksum placement {placement!r}")
        self.placement = placement

    @property
    def overlaps_tx(self) -> bool:  # type: ignore[override]
        return self.placement == "trailer"

    def compile_stage(self) -> StageSpec:
        return StageSpec(
            slot=self.category,
            name=self.name,
            send_fixed=self.SEND_COST,
            send_per_byte=self.PER_BYTE,
            recv_fixed=self.RECV_COST,
            recv_per_byte=self.PER_BYTE,
            dispatch_send=self.DISPATCH_SEND,
            dispatch_recv=self.DISPATCH_RECV,
            overlaps_tx=self.placement == "trailer",
        )

    def _compute(self, pdu: PDU) -> int:
        raise NotImplementedError

    def attach(self, pdu: PDU) -> None:
        pdu.checksum = self._compute(pdu)
        pdu.checksum_placement = self.placement

    def verify(self, pdu: PDU, corrupted: bool) -> bool:
        if not corrupted:
            return True
        if self.MISS_P > 0.0 and self.session.rng.random() < self.MISS_P:
            self.session.stats.undetected_errors += 1
            self.session.stats.corrupted_delivered += 1
            return True
        self.session.stats.checksum_rejections += 1
        return False


class InternetChecksum(_ChecksumBase):
    """RFC-1071 16-bit ones-complement checksum."""

    __slots__ = ()

    name = "checksum"
    SEND_COST = 40.0
    RECV_COST = 40.0
    PER_BYTE = 1.0
    MISS_P = CHECKSUM16_MISS_P

    def _compute(self, pdu: PDU) -> int:
        return pdu.message.checksum16() if pdu.message is not None else 0


class Crc32(_ChecksumBase):
    """CRC-32 — stronger and costlier than the Internet checksum."""

    __slots__ = ()

    name = "crc32"
    SEND_COST = 40.0
    RECV_COST = 40.0
    PER_BYTE = 2.0
    MISS_P = 0.0

    def _compute(self, pdu: PDU) -> int:
        if pdu.message is None:
            return 0
        crc = 0
        for seg in pdu.message.segments_view():
            crc = zlib.crc32(seg, crc)
        return crc & 0xFFFFFFFF
