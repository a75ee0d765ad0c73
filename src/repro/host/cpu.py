"""Host CPU cost model.

Costs are expressed in *instructions*; the CPU converts them to virtual time
at its MIPS rating and serializes all submitted work.  The default cost
constants follow the relative magnitudes the paper cites: interrupts and
context switches are thousands of instructions (§2.2(A)(3-4): RISC machines
"penalize interrupt-driven network communication" via cache/pipeline/TLB
flushes); copying and checksumming are per-byte costs that dominate large
PDUs (§4.2.1: "memory-to-memory copying is a significant source of
transport system overhead"); header parsing is cheap when fields are
word-aligned and fixed-size, expensive otherwise (§2.2(C) footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class CpuCosts:
    """Instruction costs for the primitive host operations.

    The defaults model an early-90s RISC workstation; experiments sweep
    individual fields (e.g. ``context_switch``) to show their effect.
    """

    interrupt: int = 2500            #: NIC interrupt entry/exit
    context_switch: int = 4000       #: process/context switch to the stack
    per_byte_copy: float = 0.5       #: memory-to-memory copy, per byte
    per_byte_checksum: float = 1.0   #: software checksum, per byte
    header_parse_aligned: int = 60   #: fixed-size, word-aligned header
    header_parse_unaligned: int = 200  #: variable options, unaligned fields
    layer_fixed: int = 400           #: fixed bookkeeping per protocol layer
    virtual_dispatch: int = 12       #: one dynamically-bound mechanism call
    timer_op: int = 150              #: schedule/cancel a timer
    buffer_alloc_fixed: int = 80     #: grab a slab from a fixed-size pool
    buffer_alloc_variable: int = 300 #: exact-fit allocation bookkeeping


class Cpu:
    """An instruction-executing resource with utilization statistics.

    By default a single serialized processor.  With ``cores > 1`` it
    models the "parallel processing of protocol functions" direction the
    paper cites (§3(B)(6b), after Zitterbart/La Porta): submitted work is
    dispatched to the earliest-available core, so independent per-PDU
    processing overlaps while each unit of work remains sequential.
    """

    def __init__(
        self,
        sim: Simulator,
        mips: float = 25.0,
        costs: CpuCosts | None = None,
        cores: int = 1,
    ) -> None:
        if mips <= 0:
            raise ValueError("MIPS rating must be positive")
        if cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.mips = float(mips)
        self.costs = costs or CpuCosts()
        self.cores = int(cores)
        self._busy_until = [0.0] * self.cores
        self.busy_time = 0.0
        self.instructions_retired = 0.0

    # ------------------------------------------------------------------
    def seconds_for(self, instructions: float) -> float:
        """Virtual time needed to retire ``instructions`` on one core."""
        return instructions / (self.mips * 1e6)

    def submit(self, instructions: float, fn: Callable[..., Any], *args: Any) -> float:
        """Queue ``instructions`` of work, then call ``fn(*args)``.

        Work goes to the earliest-free core (FCFS per core); with one core
        this is a plain serialized queue.  Returns the absolute completion
        time, letting callers reason about induced latency.
        """
        if instructions < 0:
            raise ValueError("instruction count cannot be negative")
        now = self.sim.now
        if self.cores == 1:
            core = 0  # the overwhelmingly common shape: skip the core scan
        else:
            core = min(range(self.cores), key=self._busy_until.__getitem__)
        busy = self._busy_until[core]
        start = busy if busy > now else now
        duration = instructions / (self.mips * 1e6)  # seconds_for()
        finish = start + duration
        self._busy_until[core] = finish
        self.busy_time += duration
        self.instructions_retired += instructions
        self.sim.schedule_transient_at(finish, fn, *args)
        return finish

    def charge(self, instructions: float) -> float:
        """Retire ``instructions`` with no completion callback.

        Identical serialization accounting to :meth:`submit` — the next
        submission starts after this work drains — but no kernel event is
        scheduled, because nothing observes the completion.  This is the
        fast lane for deferred charges (e.g. a trailer checksum computed
        during serialization) whose only effect is occupying the CPU.
        """
        if instructions < 0:
            raise ValueError("instruction count cannot be negative")
        now = self.sim.now
        if self.cores == 1:
            core = 0
        else:
            core = min(range(self.cores), key=self._busy_until.__getitem__)
        busy = self._busy_until[core]
        start = busy if busy > now else now
        duration = instructions / (self.mips * 1e6)  # seconds_for()
        finish = start + duration
        self._busy_until[core] = finish
        self.busy_time += duration
        self.instructions_retired += instructions
        return finish

    def utilization(self, elapsed: float) -> float:
        """Mean per-core busy fraction over ``elapsed`` wall-clock."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.cores))

    @property
    def backlog(self) -> float:
        """Seconds of work queued ahead of a submission made right now."""
        earliest = min(self._busy_until)
        return max(0.0, earliest - self.sim.now)
