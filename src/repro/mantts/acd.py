"""The ADAPTIVE Communication Descriptor — Table 2, verbatim.

An ACD is what the application hands the MANTTS-API when initiating a
connection.  Its five parameter groups map one-to-one onto Table 2's rows:

==========================  ============================================
Table 2 parameter            field
==========================  ============================================
Remote Session Participant   ``participants`` (≥1 addresses; >1 ⇒
Address(es)                  multicast service)
Quantitative QoS             ``quantitative``
Qualitative QoS              ``qualitative``
Transport Service            ``tsa`` — <condition, action> pairs evaluated
Adjustment (TSA)             at run time by the policy engine
Transport Measurement        ``tmc`` — per-session metric collection
Component (TMC)              requests handed to UNITES
==========================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.mantts.qos import QualitativeQoS, QuantitativeQoS


@dataclass(frozen=True)
class TSARule:
    """One <condition, action> Transport Service Adjustment pair.

    ``condition`` is an expression over monitored metrics, e.g.
    ``("congestion", ">", 0.5)``; ``action`` names what to do when it
    becomes true — either an SCS adjustment (mechanism switch or parameter
    retune), a TSC change, or an application notification (the paper's
    three reconfiguration outcomes, §4.1.2).
    """

    metric: str
    op: str                     #: one of > < >= <=
    threshold: float
    action: str                 #: "adjust-scs" | "adjust-tsc" | "notify"
    #: for adjust-scs: SessionConfig field overrides to apply
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: free-form tag passed to the application on "notify"
    tag: str = ""

    def __post_init__(self) -> None:
        if self.op not in (">", "<", ">=", "<="):
            raise ValueError(f"unsupported comparison {self.op!r}")
        if self.action not in ("adjust-scs", "adjust-tsc", "notify"):
            raise ValueError(f"unsupported action {self.action!r}")

    def holds(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == "<":
            return value < self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class TMC:
    """Transport Measurement Component: what UNITES should collect."""

    #: metric names to sample (from repro.unites.metrics catalogue)
    metrics: Tuple[str, ...] = ()
    #: sampling period, seconds
    sampling_interval: float = 0.5
    #: presentation format hint ("table" | "csv" | "series")
    presentation: str = "table"

    def __post_init__(self) -> None:
        if self.sampling_interval <= 0:
            raise ValueError("sampling interval must be positive")
        if self.presentation not in ("table", "csv", "series"):
            raise ValueError(f"unknown presentation {self.presentation!r}")


@dataclass(frozen=True, slots=True)
class ACD:
    """One application communication descriptor (Table 2)."""

    participants: Tuple[str, ...]
    quantitative: QuantitativeQoS = field(default_factory=QuantitativeQoS)
    qualitative: QualitativeQoS = field(default_factory=QualitativeQoS)
    tsa: Tuple[TSARule, ...] = ()
    tmc: Optional[TMC] = None
    #: destination application port on the participants
    service_port: int = 7000
    #: optional explicit TSC name, short-circuiting Stage I (§4.1.1:
    #: "applications may explicitly select a TSC")
    explicit_tsc: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.participants:
            raise ValueError("an ACD names at least one remote participant")
        if self.service_port <= 0:
            raise ValueError("service port must be positive")

    @property
    def is_multicast(self) -> bool:
        """Multicast *service* is requested by naming >1 participants;
        the qualitative ``multicast`` flag only records the capability
        (Table 1's column), not a demand for group delivery right now."""
        return len(self.participants) > 1
