"""Session configuration: the executable half of the SCS.

MANTTS' *Session Configuration Specification* (Stage II of Figure 2) is a
"blueprint that specifies a set of protocol mechanisms".  ``SessionConfig``
is that blueprint: one field per mechanism slot of Figure 5 plus the
parameters Table 2 lists as negotiable (window advertisements, segment
size, timer settings, buffer representation...).

The TKO synthesizer consumes a ``SessionConfig``; MANTTS produces one from
a transport service class and the observed network state.  Configs are
hashable via :meth:`signature` so the template cache can recognise
commonly requested SCSs (§4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

CONNECTION_CHOICES = ("implicit", "explicit-2way", "explicit-3way")
TRANSMISSION_CHOICES = (
    "none",
    "stop-and-wait",
    "sliding-window",
    "rate",
    "window-rate",
    "tcp-aimd",  # baseline: slow-start + AIMD (repro.baselines.tcp_like)
)
DETECTION_CHOICES = ("none", "checksum", "crc32")
PLACEMENT_CHOICES = ("header", "trailer")
ACK_CHOICES = ("none", "cumulative", "delayed", "selective")
RECOVERY_CHOICES = ("none", "gbn", "sr", "fec-xor", "fec-rs")
SEQUENCING_CHOICES = ("none", "ordered", "ordered-dedup")
DELIVERY_CHOICES = ("unicast", "multicast")
JITTER_CHOICES = ("none", "playout")
BUFFER_CHOICES = ("fixed", "variable")
BINDING_CHOICES = ("dynamic", "reconfigurable", "static")


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Complete mechanism selection + parameters for one session."""

    # --- mechanism slots (Figure 5 hierarchies) -----------------------
    connection: str = "explicit-3way"
    transmission: str = "sliding-window"
    detection: str = "checksum"
    checksum_placement: str = "trailer"
    ack: str = "cumulative"
    recovery: str = "gbn"
    sequencing: str = "ordered-dedup"
    delivery: str = "unicast"
    jitter: str = "none"
    buffer: str = "variable"

    # --- parameters (Table 2's negotiable parameters) ------------------
    window: int = 16                      #: flow-control window, PDUs
    rate_pps: Optional[float] = None      #: rate-control ceiling (pkts/s)
    segment_size: Optional[int] = None    #: None = derive from path MTU
    fec_k: int = 4                        #: data PDUs per FEC group
    fec_r: int = 1                        #: parity PDUs per FEC group
    playout_delay: float = 0.08           #: jitter-buffer depth, seconds
    gap_timeout: float = 0.25             #: skip-missing timeout for ordered
                                          #: delivery without retransmission
    rto_initial: float = 0.5              #: initial retransmission timeout
    rto_min: float = 0.1
    ack_delay: float = 0.02               #: delayed-ACK hold time
    priority: bool = False                #: request network priority class
    compact_headers: bool = True          #: word-aligned efficient format
    max_retries: int = 8                  #: give-up threshold

    # --- implementation binding (§4.2.2 customization) -----------------
    binding: str = "dynamic"

    def __post_init__(self) -> None:
        checks = [
            ("connection", CONNECTION_CHOICES),
            ("transmission", TRANSMISSION_CHOICES),
            ("detection", DETECTION_CHOICES),
            ("checksum_placement", PLACEMENT_CHOICES),
            ("ack", ACK_CHOICES),
            ("recovery", RECOVERY_CHOICES),
            ("sequencing", SEQUENCING_CHOICES),
            ("delivery", DELIVERY_CHOICES),
            ("jitter", JITTER_CHOICES),
            ("buffer", BUFFER_CHOICES),
            ("binding", BINDING_CHOICES),
        ]
        for name, allowed in checks:
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name}={value!r} not one of {allowed}")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.rate_pps is not None and self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.fec_k < 1 or self.fec_r < 1:
            raise ValueError("FEC group must have k>=1 data and r>=1 parity")
        if self.recovery in ("gbn", "sr") and self.ack == "none":
            raise ValueError(f"recovery={self.recovery!r} requires an ACK scheme")
        if self.recovery == "sr" and self.ack != "selective":
            raise ValueError("selective repeat requires selective ACKs")
        if self.transmission in ("stop-and-wait", "sliding-window", "window-rate", "tcp-aimd") and self.ack == "none":
            raise ValueError(
                f"transmission={self.transmission!r} needs ACKs to open the window"
            )
        if self.delivery == "multicast" and self.connection != "implicit":
            raise ValueError(
                "multicast sessions use implicit connection management "
                "(per-member explicit handshakes are a MANTTS concern)"
            )
        if self.playout_delay < 0 or self.ack_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.segment_size is not None and self.segment_size < 64:
            raise ValueError("segment_size must be >= 64 bytes")

    # ------------------------------------------------------------------
    def signature(self) -> Tuple:
        """Hashable identity used as the template-cache key.

        Everything that affects the synthesized mechanism set participates;
        purely numeric tuning knobs that templates re-parameterise
        (timer values) are excluded so near-identical requests share a
        template, which is what makes the cache effective (§4.2.2).
        """
        return (
            self.connection,
            self.transmission,
            self.detection,
            self.checksum_placement,
            self.ack,
            self.recovery,
            self.sequencing,
            self.delivery,
            self.jitter,
            self.buffer,
            self.priority,
            self.compact_headers,
            self.binding,
        )

    def with_(self, **overrides) -> "SessionConfig":
        """A modified copy (configs are immutable)."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """JSON-safe representation (for negotiation signalling)."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        unknown = set(data) - _KNOWN_FIELDS
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """One-line human-readable summary for logs and reports."""
        parts = [
            f"conn={self.connection}",
            f"tx={self.transmission}(w={self.window}"
            + (f",r={self.rate_pps:.0f}pps" if self.rate_pps else "")
            + ")",
            f"det={self.detection}@{self.checksum_placement}",
            f"ack={self.ack}",
            f"rec={self.recovery}",
            f"seq={self.sequencing}",
            f"dlv={self.delivery}",
            f"jit={self.jitter}",
            f"bind={self.binding}",
        ]
        return " ".join(parts)


#: reflected once: every signalling message round-trips through
#: ``to_dict`` / ``from_dict``
_FIELD_NAMES = tuple(f.name for f in fields(SessionConfig))
_KNOWN_FIELDS = frozenset(_FIELD_NAMES)
