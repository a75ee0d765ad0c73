"""Buffer-management representation mechanisms.

Table 2 lists "fixed-size vs. variable-sized buffer management" among the
negotiable *representations*.  The mechanism selects the host pool
discipline and contributes the corresponding per-PDU allocation cost:
fixed slabs allocate cheaply but waste internal space (reducing effective
receive capacity); variable allocation is exact but costs more
instructions per PDU.
"""

from __future__ import annotations

from typing import ClassVar

from repro.mechanisms.base import Mechanism


class BufferManagement(Mechanism):
    """Root of the buffer-representation hierarchy."""

    __slots__ = ()

    category = "buffer"
    discipline: ClassVar[str] = "variable"

    def alloc_cost(self) -> float:
        """Instructions per buffer allocation under this discipline."""
        raise NotImplementedError


class FixedBuffers(BufferManagement):
    """Slab pools: cheap allocation, internal fragmentation."""

    __slots__ = ()

    name = "fixed"
    discipline = "fixed"
    SEND_COST = 20.0
    RECV_COST = 20.0

    def alloc_cost(self) -> float:
        return float(self.session.host.cpu.costs.buffer_alloc_fixed)


class VariableBuffers(BufferManagement):
    """Exact-fit pools: no waste, costlier allocation path."""

    __slots__ = ()

    name = "variable"
    discipline = "variable"
    SEND_COST = 30.0
    RECV_COST = 30.0

    def alloc_cost(self) -> float:
        return float(self.session.host.cpu.costs.buffer_alloc_variable)
