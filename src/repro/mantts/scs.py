"""The Session Configuration Specification (Stage II output).

"The SCS is a blueprint that specifies a set of protocol mechanisms that
implement the selected TSC policies ... based upon information regarding
static and dynamic network characteristics, along with information
obtained from negotiating with remote ... entities" (§4.1.1).

Structurally the SCS wraps the executable
:class:`~repro.tko.config.SessionConfig` together with the provenance
MANTTS needs later: which TSC produced it, the network snapshot it was
derived from, and the negotiable parameters that the remote entity may
counter during explicit negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.mantts.monitor import NetworkState
from repro.mantts.tsc import TSC
from repro.tko.config import SessionConfig


@dataclass(slots=True)
class SCS:
    """One session configuration specification."""

    config: SessionConfig
    tsc: TSC
    network: Optional[NetworkState] = None
    #: reason strings recorded at each derivation/negotiation step
    rationale: list = field(default_factory=list)

    def note(self, reason: str) -> None:
        """Record one derivation decision (kept for experiment reports)."""
        self.rationale.append(reason)

    def clone(self) -> "SCS":
        """An independent SCS: shared immutable config, private rationale.

        Cache layers (:mod:`repro.host.connmgr`) hand out clones so one
        connection's negotiation notes and config swaps never leak into
        another connection that derived the same specification.
        """
        return SCS(self.config, self.tsc, self.network, list(self.rationale))

    def negotiable(self) -> dict:
        """Parameters the responder may counter (Table 2's category (1))."""
        c = self.config
        return {
            "window": c.window,
            "rate_pps": c.rate_pps,
            "segment_size": c.segment_size,
            "fec_k": c.fec_k,
            "fec_r": c.fec_r,
            "playout_delay": c.playout_delay,
        }

    def describe(self) -> str:
        return f"[{self.tsc.value}] {self.config.describe()}"
