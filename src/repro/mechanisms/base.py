"""Abstract base classes rooting the mechanism hierarchies (Figure 5).

Every mechanism:

* is **bound** to exactly one session (giving it access to shared session
  state, timers, and the host CPU cost table);
* declares its **instruction costs** on the send and receive paths, once,
  in :meth:`Mechanism.compile_stage`; the pipeline compiler folds them
  into the per-PDU CPU charge;
* supports **segue** (§4.2.2): ``new.adopt(old)`` transfers whatever state
  must survive a run-time mechanism swap (e.g. the retransmission queue
  when switching go-back-N → selective repeat "without loss of data").

The base class also counts how many dynamically-dispatched calls a PDU
makes through each mechanism (``DISPATCH_SEND`` / ``DISPATCH_RECV``); the
pipeline multiplies these by the binding style's indirection factor to
model the customization trade-off the paper takes from Synthesis/SELF.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, List, Optional

from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.tko.pdu import PDU
    from repro.tko.session import TKOSession


@dataclass(frozen=True, slots=True)
class StageSpec:
    """The compiled form of one mechanism: its per-PDU cost contribution.

    ``Mechanism.compile_stage`` produces one of these at synthesis (and
    again for only the affected slot on segue).  The pipeline compiler
    folds the fixed parts into closed-form charges so the data path never
    asks a mechanism what a PDU costs — the Synthesis/SELF move of
    §4.2.2: pay for flexibility at (re)configuration time, not per packet.
    """

    slot: str
    name: str
    send_fixed: float
    send_per_byte: float
    recv_fixed: float
    recv_per_byte: float
    dispatch_send: int
    dispatch_recv: int
    overlaps_tx: bool


class Mechanism(abc.ABC):
    """Common behaviour for all session mechanisms."""

    __slots__ = ("session",)

    #: mechanism slot this class plugs into (one of TKOContext.SLOTS)
    category: ClassVar[str] = ""
    #: concrete mechanism name as it appears in a SessionConfig
    name: ClassVar[str] = ""
    #: fixed instruction cost contributed to each sent / received PDU
    SEND_COST: ClassVar[float] = 0.0
    RECV_COST: ClassVar[float] = 0.0
    #: dynamically-dispatched calls this mechanism makes per PDU
    DISPATCH_SEND: ClassVar[int] = 1
    DISPATCH_RECV: ClassVar[int] = 1
    #: False when the mechanism keeps references to in-flight PDUs beyond
    #: the sender's retransmission queue (e.g. FEC groups) — the session
    #: then refuses to hand it free-listed PDUs that may be recycled.
    POOL_SAFE: ClassVar[bool] = True

    def __init__(self) -> None:
        self.session: Optional["TKOSession"] = None

    # ------------------------------------------------------------------
    def bind(self, session: "TKOSession") -> None:
        """Attach to the owning session; called once by the synthesizer."""
        self.session = session

    def unbind(self) -> None:
        """Detach (cancel timers, drop references); called before segue-out."""
        self.session = None

    def adopt(self, old: "Mechanism") -> None:
        """Take over state from the mechanism being replaced.

        The default is a no-op; hierarchies whose members carry protocol
        state (recovery queues, pacing debts, handshake progress) override
        this so a segue is loss-free.
        """

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # UNITES-X hooks — callers guard with ``if TELEMETRY.enabled:`` on
    # hot paths; both are no-ops while telemetry is disabled.
    # ------------------------------------------------------------------
    def count_invoke(self, op: str) -> None:
        """Count one invocation of operation ``op`` on this mechanism."""
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "mechanism_invocations_total",
                labels={"mechanism": self.name, "category": self.category, "op": op},
                help="per-mechanism operation invocations").inc()

    def invoke_span(self, op: str):
        """A ``mechanism:<name>.<op>`` span (NULL_SPAN when disabled)."""
        return _TELEMETRY.span(f"mechanism:{self.name}.{op}", "mechanism")

    # ------------------------------------------------------------------
    def compile_stage(self) -> StageSpec:
        """Flatten this (bound, parameterised) mechanism into a StageSpec.

        The default covers every mechanism whose costs are the class-level
        constants; subclasses with size- or membership-dependent costs
        (checksums, FEC, multicast delivery) override to expose their
        per-byte coefficient or instance-dependent fixed part.
        """
        return StageSpec(
            slot=self.category,
            name=self.name,
            send_fixed=self.SEND_COST,
            send_per_byte=0.0,
            recv_fixed=self.RECV_COST,
            recv_per_byte=0.0,
            dispatch_send=self.DISPATCH_SEND,
            dispatch_recv=self.DISPATCH_RECV,
            overlaps_tx=bool(getattr(self, "overlaps_tx", False)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.category}:{self.name})>"


# ----------------------------------------------------------------------
# hierarchy roots
# ----------------------------------------------------------------------
class ConnectionManagement(Mechanism):
    """Root: establishing, maintaining, and terminating associations."""

    __slots__ = ()

    category = "connection"

    @abc.abstractmethod
    def active_open(self) -> None:
        """Client side: begin establishing (may complete immediately)."""

    @abc.abstractmethod
    def passive_open(self, pdu: "PDU") -> None:
        """Server side: react to the peer's opening PDU."""

    @abc.abstractmethod
    def handle_control(self, pdu: "PDU") -> bool:
        """Process a control PDU; return True when consumed."""

    @abc.abstractmethod
    def close(self) -> None:
        """Begin (graceful) termination."""

    @property
    @abc.abstractmethod
    def connected(self) -> bool:
        """True once data transfer is permitted."""

    @abc.abstractmethod
    def piggyback_config(self) -> Optional[dict]:
        """Config options to ride on the first DATA PDU (implicit setup)."""


class TransmissionControl(Mechanism):
    """Root: when queued PDUs may enter the network (window / rate / both)."""

    __slots__ = ()

    category = "transmission"

    @abc.abstractmethod
    def can_send(self) -> bool:
        """May one more PDU be released right now (window permitting)?"""

    @abc.abstractmethod
    def send_gap(self) -> float:
        """Seconds until the pacing allows the next release (0 = now)."""

    def on_send(self, pdu: "PDU") -> None:
        """Hook: a DATA PDU was released to the network."""

    def on_ack(self, pdu: "PDU") -> None:
        """Hook: an acknowledgment arrived (window may have opened)."""

    def on_loss(self) -> None:
        """Hook: loss was inferred (baselines use this for AIMD)."""


class ErrorDetection(Mechanism):
    """Root: detecting corrupted PDUs (checksum family + placement)."""

    __slots__ = ()

    category = "detection"

    #: True when send-side computation can overlap transmission (trailer)
    overlaps_tx: ClassVar[bool] = False

    @abc.abstractmethod
    def attach(self, pdu: "PDU") -> None:
        """Compute and store the check value on an outgoing PDU."""

    @abc.abstractmethod
    def verify(self, pdu: "PDU", corrupted: bool) -> bool:
        """Return True to accept the PDU.

        ``corrupted`` is the channel's ground truth; a detection scheme may
        miss (bounded by its strength) and a ``none`` scheme accepts
        everything — delivering damaged data to the application, which is a
        legitimate configuration for loss-tolerant media (§2.2(B)).
        """


class Acknowledgment(Mechanism):
    """Root: receiver-side acknowledgment generation policy."""

    __slots__ = ()

    category = "ack"

    @abc.abstractmethod
    def on_data(self, pdu: "PDU") -> None:
        """A DATA PDU was accepted; decide whether/what to acknowledge."""

    def on_gap(self, pdu: "PDU") -> None:
        """An out-of-order DATA PDU exposed a gap (dup-ACK opportunity)."""

    def flush(self) -> None:
        """Emit any withheld acknowledgment immediately (delayed ACKs)."""


class ErrorRecovery(Mechanism):
    """Root: repairing loss — retransmission schemes and FEC."""

    __slots__ = ()

    category = "recovery"

    #: receiver buffers out-of-order PDUs (selective repeat) or not (GBN)
    accept_out_of_order: ClassVar[bool] = True
    #: whether this scheme retransmits at all (FEC/none do not)
    retransmits: ClassVar[bool] = False

    @abc.abstractmethod
    def on_send(self, pdu: "PDU") -> Iterable["PDU"]:
        """Sender hook: note a DATA PDU entering the network.

        Returns any *extra* PDUs to transmit right after it (FEC parity).
        """

    @abc.abstractmethod
    def on_ack(self, pdu: "PDU", from_host: str = "") -> None:
        """Sender hook: acknowledgment processing (release state).

        ``from_host`` identifies the acknowledging endpoint — required to
        count duplicate ACKs correctly under multicast, where every member
        acknowledges every sequence number.
        """

    @abc.abstractmethod
    def on_receive_repair(self, pdu: "PDU") -> List["PDU"]:
        """Receiver hook for PARITY PDUs: returns reconstructed DATA PDUs."""

    def note_data_received(self, pdu: "PDU") -> None:
        """Receiver hook: a DATA PDU arrived (FEC group bookkeeping)."""

    #: receiver hook of schemes a *data* arrival can complete a repair for
    repair_opportunity = None

    def outstanding_count(self) -> int:
        """Unacknowledged DATA PDUs held for possible retransmission."""
        return 0


class Delivery(Mechanism):
    """Root: unicast vs multicast addressing and ACK aggregation."""

    __slots__ = ()

    category = "delivery"

    @abc.abstractmethod
    def destinations(self) -> List[str]:
        """Current remote endpoint(s)."""

    @abc.abstractmethod
    def frame_dst(self) -> str:
        """Address placed on outgoing frames (host or group address)."""

    @abc.abstractmethod
    def ack_complete(self, seq: int, from_host: str) -> bool:
        """Record an ACK for ``seq`` from ``from_host``; True when every
        destination has acknowledged it (multicast ACK aggregation)."""

    def membership_changed(self, members: List[str]) -> None:
        """Group membership update (participants joining/leaving, §2.1(B))."""


class JitterControl(Mechanism):
    """Root: smoothing delivery-time variance before the application."""

    __slots__ = ()

    category = "jitter"

    @abc.abstractmethod
    def release_delay(self, pdu: "PDU") -> float:
        """Seconds to hold the (complete) message before app delivery."""
