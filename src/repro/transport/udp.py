"""Real UDP substrate: asyncio datagram transports, one loop thread.

The backend owns a private asyncio event loop on a daemon thread.  All
socket I/O happens there; all *protocol* work happens on the caller's
thread via the realtime driver — received datagrams are decoded on the
loop thread (the codec is pure) and posted to the driver's inbox, so the
ADAPTIVE stack stays single-threaded exactly as in simulation.

Two layers ride the same loop:

* :class:`UdpFabric` — the network surface for a full system: named
  peers (``{host_name: (ip, port)}``), frames out through the versioned
  wire codec, pooled-PDU wire references consumed on success and every
  failure path (see :class:`~repro.transport.fabric.RealFabric`);
* :class:`UdpEndpoint` pairs — the conformance/bench endpoints, framing
  the byte-pipe contract onto datagrams with a one-byte type prefix
  (``D`` data, ``F`` fin, ``R`` reset, ``H`` keepalive).  Loopback UDP
  preserves order and never drops in practice, which is all the
  contract tests need.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Tuple

from repro.netsim.frame import WireFormatError, decode_frame
from repro.sim.clock import WallClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.transport.base import ECONNRESET, TransportBackend, _BufferedEndpoint
from repro.transport.fabric import RealFabric, VirtualLink
from repro.transport.realtime import RealtimeDriver

_CALL_TIMEOUT = 5.0  # bound every cross-thread loop call (hung-socket guard)


class _FabricProtocol(asyncio.DatagramProtocol):
    """Receives fabric datagrams on the loop thread, hands decoded frames
    to the driver thread."""

    def __init__(self, backend: "UdpBackend") -> None:
        self.backend = backend

    def datagram_received(self, data: bytes, addr) -> None:
        fabric = self.backend._fabric
        try:
            frame = decode_frame(data)
        except WireFormatError:
            fabric._count("transport_decode_errors_total")
            return
        # learn the sender's address, so a responder bound on port 0 can
        # reply without out-of-band peer configuration — and *relearn* it
        # when the source moves, so a peer that restarts on a new port is
        # reachable again instead of pinned to its first-seen address
        known = fabric.peers.get(frame.src)
        here = (addr[0], addr[1])
        if known != here:
            fabric.peers[frame.src] = here
            if known is not None:
                fabric.peer_rebinds += 1
                fabric._count("transport_peer_rebinds_total")
        fabric._count("transport_bytes_received_total", by=len(data))
        self.backend.driver.post(fabric.deliver, frame)


class UdpFabric(RealFabric):
    """Network surface carrying frames as UDP datagrams to named peers."""

    kind = "udp"

    def __init__(self, backend: "UdpBackend",
                 peers: Optional[Dict[str, Tuple[str, int]]] = None,
                 rng: Optional[RngStreams] = None,
                 link: Optional[VirtualLink] = None) -> None:
        super().__init__(rng=rng, link=link)
        self.backend = backend
        self.peers: Dict[str, Tuple[str, int]] = dict(peers or {})
        self.peer_rebinds = 0
        self._transport: Optional[asyncio.DatagramTransport] = None

    def add_peer(self, name: str, host: str, port: int) -> None:
        self.peers[name] = (host, port)

    def _transmit(self, data: bytes, dst: str, frame) -> None:
        if dst in self._handlers:  # self-send: skip the socket entirely
            try:
                # same-thread decode: slab-store the payload locally
                # (socket receives decode on the loop thread and must
                # stay arena-free — see _FabricProtocol)
                decoded = decode_frame(data, arena=self.arena)
            except WireFormatError:
                self._count("transport_decode_errors_total")
                return
            self.backend.driver.post(self.deliver, decoded)
            return
        addr = self.peers[dst]  # KeyError -> counted by RealFabric.send
        try:
            self.backend._loop.call_soon_threadsafe(
                self._transport.sendto, data, addr)
        except RuntimeError as exc:  # loop closed mid-send
            raise OSError(str(exc)) from exc


class _EndpointProtocol(asyncio.DatagramProtocol):
    """One conformance endpoint's socket: unframe D/F/R datagrams into
    the shared buffered-endpoint machinery."""

    def __init__(self, endpoint: "UdpEndpoint") -> None:
        self.endpoint = endpoint

    def datagram_received(self, data: bytes, addr) -> None:
        if not data:
            return
        kind, payload = data[:1], data[1:]
        if kind == b"D":
            self.endpoint._feed(payload)
        elif kind == b"F":
            self.endpoint._feed_eof()
        elif kind == b"R":
            self.endpoint._feed_reset()
        elif kind == b"H":
            self.endpoint._feed_keepalive()


class UdpEndpoint(_BufferedEndpoint):
    """One side of a datagram-framed byte pipe on 127.0.0.1."""

    backend = "udp"

    def __init__(self, owner: "UdpBackend") -> None:
        super().__init__(owner.clock)
        self._owner = owner
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peer_addr: Optional[Tuple[str, int]] = None

    def _open(self) -> Tuple[str, int]:
        transport, _ = self._owner._call(
            self._owner._loop.create_datagram_endpoint(
                lambda: _EndpointProtocol(self), local_addr=("127.0.0.1", 0)))
        self._transport = transport
        return transport.get_extra_info("sockname")[:2]

    def _sendto(self, datagram: bytes) -> None:
        try:
            self._owner._loop.call_soon_threadsafe(
                self._transport.sendto, datagram, self._peer_addr)
        except RuntimeError:
            pass  # backend closed under this endpoint; drop like the wire

    def send(self, data: bytes) -> int:
        if self._closed or self._reset:
            return ECONNRESET
        self._sendto(b"D" + bytes(data))
        return len(data)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._sendto(b"F")

    def abort(self) -> None:
        self._closed = True
        self._sendto(b"R")

    def keepalive(self) -> None:
        if not (self._closed or self._reset):
            self._sendto(b"H")


class UdpBackend(TransportBackend):
    """The real-socket substrate for one ADAPTIVE system (or process).

    ``local_name`` + ``bind`` stand up the fabric socket immediately;
    ``backend.port`` then reports the kernel-chosen port (bind port 0 in
    tests — never collide in CI).  Peers may be declared up front or via
    ``backend.network.add_peer`` once the other process reports its port.
    """

    name = "udp"

    def __init__(self, local_name: Optional[str] = None,
                 bind: Tuple[str, int] = ("127.0.0.1", 0),
                 peers: Optional[Dict[str, Tuple[str, int]]] = None,
                 seed: int = 0, clock: Optional[WallClock] = None,
                 link: Optional[VirtualLink] = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.local_name = local_name
        self._sim = Simulator()
        self.driver = RealtimeDriver(self._sim, self.clock)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="udp-backend-loop", daemon=True)
        self._thread.start()
        self._fabric: Optional[UdpFabric] = None
        self._endpoints: list = []
        self._closed = False
        self.port: Optional[int] = None
        if local_name is not None:
            self._fabric = UdpFabric(self, peers=peers,
                                     rng=RngStreams(seed), link=link)
            transport, _ = self._call(self._loop.create_datagram_endpoint(
                lambda: _FabricProtocol(self), local_addr=bind))
            self._fabric._transport = transport
            self.port = transport.get_extra_info("sockname")[1]

    def _call(self, coro):
        """Run a coroutine on the loop thread, bounded by _CALL_TIMEOUT."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            _CALL_TIMEOUT)

    @property
    def simulator(self) -> Simulator:
        return self._sim

    @property
    def network(self):
        return self._fabric

    def impair(self, spec):
        """Make this backend's sends hostile (see
        :class:`~repro.transport.impair.ImpairedFabric`).  Call before
        constructing a system over the backend; returns the wrapper."""
        from repro.transport.impair import ImpairedFabric

        if self._fabric is None:
            raise RuntimeError("no fabric to impair (no local_name bound)")
        self._fabric = ImpairedFabric(self._fabric, spec)
        return self._fabric

    def pair(self, **kwargs) -> Tuple[UdpEndpoint, UdpEndpoint]:
        a = UdpEndpoint(self)
        b = UdpEndpoint(self)
        addr_a = a._open()
        addr_b = b._open()
        a._peer_addr, b._peer_addr = addr_b, addr_a
        self._endpoints += [a, b]
        return a, b

    def run(self, until: Optional[float] = None, stop_when=None,
            poll: Optional[float] = None) -> None:
        """Drive this system's world in wall time until the timeline
        reaches ``until`` (seconds since backend construction) or
        ``stop_when()`` turns true."""
        duration = None if until is None else max(0.0, until - self.clock.now())
        self.driver.run(duration=duration, stop_when=stop_when, poll=poll)

    def close(self) -> None:
        """Idempotent shutdown: stop the driver, close every transport on
        the loop thread, stop and *always* release the loop.

        Safe to call twice (the second call is a no-op), safe while the
        driver is mid-``run`` (``stop`` ends it), and a wedged loop
        thread gets a second stop request before we give up — the loop
        object itself is closed whenever the thread has actually exited,
        never leaked behind an early return.
        """
        if self._closed:
            return
        self._closed = True
        self.driver.stop()

        def _shutdown() -> None:
            for ep in self._endpoints:
                if ep._transport is not None:
                    ep._transport.close()
            if self._fabric is not None and self._fabric._transport is not None:
                self._fabric._transport.close()
            # a transport closes its socket in a callback ``close`` queues:
            # stop behind it, or the loop halts with every socket open
            self._loop.call_soon(self._loop.stop)

        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:
                pass  # the loop died under us; nothing left to run there
            self._thread.join(timeout=_CALL_TIMEOUT)
            if self._thread.is_alive():
                # a handler wedged the first shutdown; one more stop, one
                # more bounded join, then fall through to the close check
                try:
                    self._loop.call_soon_threadsafe(self._loop.stop)
                except RuntimeError:
                    pass
                self._thread.join(timeout=_CALL_TIMEOUT)
        if not self._loop.is_running() and not self._loop.is_closed():
            self._loop.close()
