"""End-system host: CPU + buffers + ports + network attachment.

A ``Host`` is the environment a transport system configuration executes in.
It charges the OS-level costs the paper blames for the throughput
preservation problem: a NIC interrupt per received frame plus a context
switch to hand the frame to protocol code (§2.2(A)(3)), and an interrupt's
worth of device programming per transmitted frame.  Everything above that —
headers, checksums, copies, timers — is charged by the transport
configuration itself through ``host.cpu``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.host.buffers import BufferPool
from repro.host.cpu import Cpu, CpuCosts
from repro.netsim.frame import Frame
from repro.sim.kernel import Simulator
from repro.host.ports import PortTable


class Host:
    """A named end system attached to one network fabric.

    ``network`` is any object with the fabric surface (``attach_host`` /
    ``detach_host`` / ``send`` / groups / path characteristics): the
    simulated :class:`~repro.netsim.network.Network`, or a real
    substrate's :class:`~repro.transport.fabric.RealFabric`.  The host —
    and every protocol layer above it — is substrate-blind.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        name: str,
        mips: float = 25.0,
        costs: Optional[CpuCosts] = None,
        buffer_capacity: int = 1 << 20,
        buffer_discipline: str = "variable",
        cores: int = 1,
    ) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.cpu = Cpu(sim, mips=mips, costs=costs, cores=cores)
        self.buffers = BufferPool(buffer_capacity, discipline=buffer_discipline)  # type: ignore[arg-type]
        self.ports = PortTable()
        # Imported lazily: repro.tko depends on repro.host at import time.
        from repro.tko.message import CopyMeter

        #: shared accounting of real payload copies on this host (E8)
        self.copy_meter = CopyMeter()
        self.protocol_entry: Optional[Callable[[Frame], None]] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_discarded = 0
        network.attach_host(name, self._on_frame)

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame, extra_instructions: float = 0.0) -> None:
        """Queue a frame for transmission.

        Charges one interrupt (device programming) plus any
        ``extra_instructions`` of protocol processing the caller accounts
        for this frame, then injects into the network.
        """
        cost = self.cpu.costs.interrupt + extra_instructions
        self.frames_sent += 1
        self.cpu.submit(cost, self.network.send, frame)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def register_protocol_entry(self, entry: Callable[[Frame], None]) -> None:
        """Register the protocol graph's frame intake (one per host)."""
        if self.protocol_entry is not None:
            raise ValueError(f"host {self.name} already has a protocol entry")
        self.protocol_entry = entry

    def _on_frame(self, frame: Frame) -> None:
        self.frames_received += 1
        if self.protocol_entry is None:
            self.frames_discarded += 1
            return
        cost = self.cpu.costs.interrupt + self.cpu.costs.context_switch
        self.cpu.submit(cost, self.protocol_entry, frame)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} mips={self.cpu.mips}>"
