"""MANTTS resource management and admission control.

MANTTS "manages various resources (message buffers, control blocks for
open sessions, and available communication ports)" (§4.1) and the
termination phase "releases resources and recalculates transport system
load information" (§4.1.3).  The resource manager tracks per-host
bandwidth reservations and buffer commitments; explicit negotiation asks
it whether a requested QoS can be admitted, and failed admission produces
the paper's negotiate-down-or-refuse outcome.

With :meth:`ResourceManager.configure_classes` the admission bandwidth is
partitioned into per-TSC-class pools: each transport service class gets a
guaranteed share, so a burst of bulk-transfer opens cannot starve the
isochronous classes (the class-level pooling the ConnectionManager layer
admits against).  Without configured classes behaviour is exactly the
historical single-pool check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.host.nic import Host


@dataclass(slots=True)
class Reservation:
    """One admitted session's resource commitment."""

    conn_ref: str
    throughput_bps: float
    buffer_bytes: int
    #: TSC class the reservation was admitted under (None = unclassified)
    tsc: Optional[str] = None


@dataclass
class ClassPool:
    """Per-TSC-class admission share and accounting."""

    name: str
    share: float                 #: fraction of the admission bandwidth
    reserved_bps: float = 0.0
    admitted: int = 0
    refused: int = 0
    released: int = 0

    def stats(self) -> Dict[str, float]:
        return {
            "share": self.share,
            "reserved_bps": self.reserved_bps,
            "admitted": self.admitted,
            "refused": self.refused,
            "released": self.released,
        }


class ResourceManager:
    """Per-host admission control over bandwidth and buffer budgets."""

    def __init__(
        self,
        host: Host,
        admission_bps: float = 100e6,
        buffer_budget: Optional[int] = None,
        overbooking: float = 1.0,
    ) -> None:
        if admission_bps <= 0:
            raise ValueError("admission bandwidth must be positive")
        if overbooking < 1.0:
            raise ValueError("overbooking factor cannot be below 1.0")
        self.host = host
        self.admission_bps = admission_bps
        self.buffer_budget = buffer_budget if buffer_budget is not None else host.buffers.capacity
        self.overbooking = overbooking
        self._reservations: Dict[str, Reservation] = {}
        #: host-wide running totals, kept by admit/release/update so an
        #: admission costs O(1), not a re-sum over every live reservation
        self.reserved_bps = 0.0
        self.reserved_buffer = 0
        self.refusals = 0
        self.admissions = 0
        self.releases = 0
        #: TSC class name -> pool; empty until :meth:`configure_classes`
        self.class_pools: Dict[str, ClassPool] = {}

    # ------------------------------------------------------------------
    def recount(self) -> Tuple[float, int]:
        """``(reserved_bps, reserved_buffer)`` re-summed from the table —
        what the running totals must equal (exactly, on integral bps)."""
        live = self._reservations.values()
        return (sum(r.throughput_bps for r in live),
                sum(r.buffer_bytes for r in live))

    def available_bps(self, tsc: Optional[str] = None) -> float:
        """Admissible bandwidth — host-wide, or within one class pool."""
        total = self.admission_bps * self.overbooking - self.reserved_bps
        pool = self.class_pools.get(tsc) if tsc is not None else None
        if pool is None:
            return total
        class_cap = self.admission_bps * self.overbooking * pool.share
        return min(total, class_cap - pool.reserved_bps)

    # ------------------------------------------------------------------
    def configure_classes(self, shares: Dict[str, float]) -> None:
        """Partition admission bandwidth into guaranteed per-class shares.

        ``shares`` maps TSC class names to fractions of the admission
        bandwidth; the fractions must be positive and sum to at most 1.0.
        Admissions that name a configured class are checked against both
        the host-wide budget and the class pool; unclassified admissions
        (or unknown class names) see only the host-wide budget, exactly as
        before.
        """
        if any(s <= 0 for s in shares.values()):
            raise ValueError("class shares must be positive")
        if sum(shares.values()) > 1.0 + 1e-9:
            raise ValueError("class shares sum to more than 1.0")
        if self._reservations:
            raise RuntimeError("cannot repartition with live reservations")
        self.class_pools = {
            name: ClassPool(name, share) for name, share in shares.items()
        }

    # ------------------------------------------------------------------
    def admit(
        self,
        conn_ref: str,
        throughput_bps: float,
        buffer_bytes: int,
        tsc: Optional[str] = None,
    ) -> Optional[Reservation]:
        """Try to reserve; returns None (refusal) when over budget.

        A refusal is the signal for the negotiator to counter with a lower
        QoS rather than hard-fail the application ("allow the application
        to re-negotiate at a lower quality of service", §4.1.1).
        """
        if conn_ref in self._reservations:
            raise ValueError(f"connection {conn_ref!r} already has a reservation")
        pool = self.class_pools.get(tsc) if tsc is not None else None
        if throughput_bps > self.available_bps(tsc) or (
            self.reserved_buffer + buffer_bytes > self.buffer_budget
        ):
            self.refusals += 1
            if pool is not None:
                pool.refused += 1
            return None
        r = Reservation(conn_ref, throughput_bps, buffer_bytes, tsc=tsc)
        self._reservations[conn_ref] = r
        self.reserved_bps += throughput_bps
        self.reserved_buffer += buffer_bytes
        self.admissions += 1
        if pool is not None:
            pool.reserved_bps += throughput_bps
            pool.admitted += 1
        return r

    def best_offer_bps(self, tsc: Optional[str] = None) -> float:
        """The throughput this host could still admit (counter-proposal)."""
        return max(0.0, self.available_bps(tsc))

    def release(self, conn_ref: str) -> None:
        """Termination-phase resource release (idempotent)."""
        r = self._reservations.pop(conn_ref, None)
        if r is None:
            return
        self.releases += 1
        if self._reservations:
            self.reserved_bps -= r.throughput_bps
            self.reserved_buffer -= r.buffer_bytes
        else:  # an empty table reads exactly zero, whatever rounding did
            self.reserved_bps, self.reserved_buffer = 0.0, 0
        pool = self.class_pools.get(r.tsc) if r.tsc is not None else None
        if pool is not None:
            pool.reserved_bps = max(0.0, pool.reserved_bps - r.throughput_bps)
            pool.released += 1

    def reservation(self, conn_ref: str) -> Optional[Reservation]:
        """The live reservation under ``conn_ref``, if any."""
        return self._reservations.get(conn_ref)

    def update(self, conn_ref: str, throughput_bps: float) -> None:
        """Adjust a live reservation after renegotiation."""
        r = self._reservations.get(conn_ref)
        if r is not None:
            pool = self.class_pools.get(r.tsc) if r.tsc is not None else None
            if pool is not None:
                pool.reserved_bps = max(
                    0.0, pool.reserved_bps - r.throughput_bps + throughput_bps
                )
            self.reserved_bps += throughput_bps - r.throughput_bps
            r.throughput_bps = throughput_bps

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        """Accounting snapshot for every configured class pool."""
        return {name: pool.stats() for name, pool in self.class_pools.items()}

    def __len__(self) -> int:
        return len(self._reservations)
