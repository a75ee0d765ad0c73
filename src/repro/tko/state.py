"""Shared session state: sender queue, receive window, RTT, statistics.

These objects live in the :class:`~repro.tko.session.TKOSession` and are
*shared by* the mechanisms plugged into its context.  Keeping protocol
state here — not inside mechanism instances — is what makes *segue*
(run-time mechanism replacement) loss-free: swapping go-back-N for
selective repeat replaces the policy object while the outstanding-PDU
queue, sequence numbers, and receive buffer persist untouched (paper
§4.2.2; the MSP "on-the-fly change without loss of data" property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tko.pdu import PDU


# ----------------------------------------------------------------------
@dataclass(slots=True)
class SendEntry:
    """Bookkeeping for one unacknowledged DATA PDU."""

    pdu: PDU
    first_sent: float
    last_sent: float
    retries: int = 0
    #: True when every current destination has selectively acknowledged it
    sacked: bool = False
    #: hosts that have SACKed this sequence (multicast aggregation)
    sacked_by: set = field(default_factory=set)


class SenderState:
    """Sequence-number space and unacknowledged queue (sender side)."""

    __slots__ = ("snd_nxt", "snd_una", "outstanding", "peer_window")

    def __init__(self) -> None:
        self.snd_nxt = 0
        self.snd_una = 0
        #: seq -> entry, in first-transmission order (insertion order)
        self.outstanding: Dict[int, SendEntry] = {}
        self.peer_window: Optional[int] = None

    def next_seq(self) -> int:
        seq = self.snd_nxt
        self.snd_nxt += 1
        return seq

    def outstanding_count(self) -> int:
        return len(self.outstanding)

    def track(self, entry: SendEntry) -> None:
        self.outstanding[entry.pdu.seq] = entry

    def release(self, seq: int) -> Optional[SendEntry]:
        entry = self.outstanding.pop(seq, None)
        if entry is not None:
            self.snd_una = min(self.outstanding) if self.outstanding else self.snd_nxt
        return entry


# ----------------------------------------------------------------------
class RttEstimator:
    """Jacobson/Karels smoothed RTT with exponential timeout backoff.

    Karn's rule (no samples from retransmitted PDUs) is enforced by the
    caller: the session only feeds samples for entries with zero retries.
    """

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0
    #: timer granularity floor (Jacobson's G): without it a deterministic
    #: path drives rttvar→0 and the timeout collapses onto srtt, making
    #: the sender's own queueing look like loss
    G = 0.01

    __slots__ = ("srtt", "rttvar", "rto_min", "rto_max", "_rto", "_backoff",
                 "samples")

    def __init__(self, rto_initial: float = 0.5, rto_min: float = 0.1, rto_max: float = 60.0) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto_min = rto_min
        self.rto_max = rto_max
        self._rto = rto_initial
        self._backoff = 1.0
        self.samples = 0

    def update(self, sample: float) -> None:
        """Fold one round-trip measurement into the estimate."""
        if sample < 0:
            raise ValueError("RTT sample cannot be negative")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            err = sample - self.srtt
            self.srtt += self.ALPHA * err
            self.rttvar += self.BETA * (abs(err) - self.rttvar)
        self._rto = self.srtt + max(self.K * self.rttvar, self.G)
        self._backoff = 1.0
        self.samples += 1

    def backoff(self) -> None:
        """Double the effective timeout after a retransmission timeout."""
        self._backoff = min(self._backoff * 2.0, 64.0)

    def reseed(self, rto_initial: float) -> None:
        """Discard the estimate and start over from ``rto_initial``.

        Used on route failover: the old path's smoothed RTT is meaningless
        on the new one (terrestrial→satellite is a 1000× jump), and keeping
        it makes every in-flight PDU look lost until backoff catches up —
        or worse, burns the give-up budget before the first new-path ACK.
        """
        self.srtt = None
        self.rttvar = 0.0
        self._rto = rto_initial
        self._backoff = 1.0
        self.samples = 0

    def note_progress(self) -> None:
        """Clear the backoff multiplier: new data was acknowledged.

        Karn's rule withholds *samples* from retransmitted PDUs, which
        during a loss burst would leave the timeout stuck at its backed-off
        ceiling forever; forward progress is evidence the path works, so
        the multiplier (not the estimate) is reset.
        """
        self._backoff = 1.0

    @property
    def rto(self) -> float:
        return float(min(self.rto_max, max(self.rto_min, self._rto * self._backoff)))


# ----------------------------------------------------------------------
class ReceiveWindow:
    """Receive-side sequence tracking, reorder buffer, duplicate filter.

    Policy flags (accept out-of-order / ordered release / dedup) are passed
    per call because they belong to the *mechanisms* currently installed —
    a segue changes behaviour instantly without copying buffered PDUs.
    """

    __slots__ = ("rcv_nxt", "buffer", "duplicates", "discarded_ooo")

    def __init__(self) -> None:
        self.rcv_nxt = 0
        #: seq -> PDU (ordered mode) or None marker (unordered bookkeeping)
        self.buffer: Dict[int, Optional[PDU]] = {}
        self.duplicates = 0
        self.discarded_ooo = 0

    def buffered_seqs(self) -> List[int]:
        return list(self.buffer.keys())

    def accept(
        self,
        pdu: PDU,
        accept_ooo: bool,
        ordered: bool,
        dedup: bool,
    ) -> Tuple[List[PDU], bool, bool]:
        """Process an arriving DATA PDU.

        Returns ``(deliverable, accepted, gap)``:

        * ``deliverable`` — PDUs to hand upward *now*, in delivery order;
        * ``accepted`` — False when the PDU was discarded (GBN out-of-order
          policy or duplicate suppression);
        * ``gap`` — True when the arrival exposed missing predecessors
          (the duplicate-ACK trigger).
        """
        seq = pdu.seq
        if seq < self.rcv_nxt or seq in self.buffer:
            self.duplicates += 1
            if dedup:
                return [], False, False
            # duplicate tolerated: deliver again, no state change
            return [pdu], True, False
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            released: List[PDU] = [pdu]
            while self.rcv_nxt in self.buffer:
                held = self.buffer.pop(self.rcv_nxt)
                if held is not None:
                    released.append(held)
                self.rcv_nxt += 1
            if not ordered:
                # out-of-order PDUs were already delivered on arrival
                released = [pdu]
            return released, True, False
        # seq > rcv_nxt: a gap
        if not accept_ooo:
            self.discarded_ooo += 1
            return [], False, True
        self.buffer[seq] = pdu if ordered else None
        if ordered:
            return [], True, True
        return [pdu], True, True

    def skip_gap(self) -> List[PDU]:
        """Abandon the missing prefix: jump ``rcv_nxt`` to the first
        buffered sequence and release the contiguous run from there.

        Used by ordered delivery *without* a retransmitting recovery
        scheme (e.g. ordered video over FEC): a gap that FEC could not
        repair must not stall the stream forever.
        """
        if not self.buffer:
            return []
        self.rcv_nxt = min(self.buffer)
        released: List[PDU] = []
        while self.rcv_nxt in self.buffer:
            held = self.buffer.pop(self.rcv_nxt)
            if held is not None:
                released.append(held)
            self.rcv_nxt += 1
        return released


# ----------------------------------------------------------------------
class Reassembler:
    """Fragment reassembly: (msg_id, frag_index/frag_count) → messages."""

    __slots__ = ("_partial",)

    def __init__(self) -> None:
        self._partial: Dict[int, Dict[int, PDU]] = {}

    def add(self, pdu: PDU) -> Optional[List[PDU]]:
        """Fold in a fragment; returns the full fragment list when the
        message is complete, else None."""
        if pdu.frag_count <= 1:
            return [pdu]
        parts = self._partial.setdefault(pdu.msg_id, {})
        displaced = parts.get(pdu.frag_index)
        if displaced is not None and displaced is not pdu:
            # a tolerated duplicate of a parked fragment (a retransmission
            # that crossed its original): one wire reference per slot
            displaced.discard()
        parts[pdu.frag_index] = pdu
        if len(parts) == pdu.frag_count:
            del self._partial[pdu.msg_id]
            return [parts[i] for i in range(pdu.frag_count)]
        return None

    def drain(self) -> List[PDU]:
        """Hand back every parked fragment (session teardown)."""
        parked = [pdu for parts in self._partial.values()
                  for pdu in parts.values()]
        self._partial.clear()
        return parked

    @property
    def partial_count(self) -> int:
        return len(self._partial)


# ----------------------------------------------------------------------
@dataclass(slots=True)
class SessionStats:
    """Whitebox per-session counters (UNITES' instrumentation surface)."""

    # traffic
    pdus_sent: int = 0
    pdus_received: int = 0
    data_bytes_sent: int = 0
    data_bytes_delivered: int = 0
    wire_bytes_sent: int = 0
    msgs_sent: int = 0
    msgs_delivered: int = 0
    # reliability
    retransmissions: int = 0
    fast_retransmits: int = 0
    control_retransmissions: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    parity_sent: int = 0
    fec_recoveries: int = 0
    # errors & filtering
    checksum_rejections: int = 0
    undetected_errors: int = 0
    corrupted_delivered: int = 0
    buffer_drops: int = 0
    gap_skips: int = 0
    late_arrivals: int = 0
    # lifecycle
    opened_at: Optional[float] = None
    established_at: Optional[float] = None
    closed_at: Optional[float] = None
    reconfigurations: int = 0
    aborted: Optional[str] = None
    # latency accounting (message-level, send → app delivery)
    latency_sum: float = 0.0
    latency_sq_sum: float = 0.0
    latency_max: float = 0.0
    latency_samples: int = 0

    def record_latency(self, latency: float) -> None:
        self.latency_sum += latency
        self.latency_sq_sum += latency * latency
        self.latency_max = max(self.latency_max, latency)
        self.latency_samples += 1

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.latency_samples if self.latency_samples else 0.0

    @property
    def jitter(self) -> float:
        """Standard deviation of delivery latency (the paper's definition:
        "the variance in the delay" — reported as its square root for
        unit consistency)."""
        n = self.latency_samples
        if n < 2:
            return 0.0
        mean = self.latency_sum / n
        var = max(0.0, self.latency_sq_sum / n - mean * mean)
        return var ** 0.5

    @property
    def connection_setup_time(self) -> Optional[float]:
        if self.opened_at is None or self.established_at is None:
            return None
        return self.established_at - self.opened_at
