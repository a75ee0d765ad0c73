"""Message buffer pools.

The paper's Table 2 lists "fixed-size vs. variable-sized buffer management"
as a negotiable *representation*, and §4.1.2 uses "a reduction in receiver's
buffer space" as a reconfiguration trigger.  Two pool disciplines are
provided:

* **fixed** — slab allocation: requests round up to the slab size, wasting
  internal space but costing few instructions per allocation;
* **variable** — exact-fit: no internal waste, higher per-allocation cost.

Pools have a hard byte capacity; exhaustion returns ``None`` rather than
raising, since running out of receive buffers is an ordinary condition the
flow-control and reconfiguration machinery must observe and react to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

Discipline = Literal["fixed", "variable"]


@dataclass
class Buffer:
    """A granted allocation: ``size`` requested, ``footprint`` occupied."""

    size: int
    footprint: int
    freed: bool = False


class BufferPool:
    """A bounded byte pool with fixed-slab or exact-fit allocation."""

    def __init__(
        self,
        capacity: int,
        discipline: Discipline = "variable",
        slab_size: int = 2048,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if discipline not in ("fixed", "variable"):
            raise ValueError(f"unknown discipline {discipline!r}")
        if discipline == "fixed" and slab_size <= 0:
            raise ValueError("slab size must be positive")
        self.capacity = int(capacity)
        self.discipline: Discipline = discipline
        self.slab_size = int(slab_size)
        self.in_use = 0
        self.high_water = 0
        self.allocations = 0
        self.failures = 0

    # ------------------------------------------------------------------
    def footprint_for(self, size: int) -> int:
        """Bytes a ``size``-byte request would actually occupy."""
        if self.discipline == "variable":
            return size
        slabs = -(-size // self.slab_size)  # ceil division
        return slabs * self.slab_size

    def alloc(self, size: int) -> Optional[Buffer]:
        """Allocate, or return None when the pool cannot satisfy the request."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        footprint = self.footprint_for(size)
        if self.in_use + footprint > self.capacity:
            self.failures += 1
            return None
        self.in_use += footprint
        self.high_water = max(self.high_water, self.in_use)
        self.allocations += 1
        return Buffer(size=size, footprint=footprint)

    def free(self, buf: Buffer) -> None:
        """Return an allocation to the pool (double-free is an error)."""
        if buf.freed:
            raise ValueError("double free")
        buf.freed = True
        self.in_use -= buf.footprint

    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def fill_fraction(self) -> float:
        """Occupancy in [0, 1] — the buffer-pressure reconfiguration signal."""
        return self.in_use / self.capacity

    def resize(self, new_capacity: int) -> None:
        """Shrink or grow the pool (shrinking below in_use is allowed and
        simply blocks new allocations until enough buffers drain) — the
        mechanism behind the "receiver buffer space reduced" callback."""
        if new_capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(new_capacity)
