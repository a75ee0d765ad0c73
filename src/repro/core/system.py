"""System assembly: one object per experiment, one node per host."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.host.cpu import CpuCosts
from repro.host.nic import Host
from repro.mantts.api import MANTTS
from repro.mantts.negotiation import MANTTS_PORT
from repro.mantts.resources import ResourceManager
from repro.mechanisms.base import Mechanism
from repro.netsim.network import Network
from repro.sim.rng import RngStreams
from repro.sim.timers import Timer
from repro.tko.ends import PEER_DEAD
from repro.tko.executor import CompiledExecutor
from repro.tko.pdu import PDU_POOL
from repro.tko.protocol import TKOProtocol
from repro.tko.session import TKOSession
from repro.tko.synthesizer import TKOSynthesizer
from repro.tko.templates import TemplateCache
from repro.unites.collect import UNITES


@dataclass
class AdaptiveNode:
    """One fully assembled ADAPTIVE host."""

    host: Host
    protocol: TKOProtocol
    mantts: MANTTS

    @property
    def name(self) -> str:
        return self.host.name


class AdaptiveSystem:
    """Owns the transport substrate, network, UNITES, and per-host nodes.

    ``transport`` selects the substrate the whole stack runs over
    (:class:`repro.transport.base.TransportBackend`).  The default is the
    simulated world, wired exactly as before substrates became pluggable:
    the system creates a fresh :class:`~repro.transport.sim.SimBackend`,
    whose simulator/clock it exposes, and ``attach_network`` hands the
    caller-built topology to the backend untouched.  Real substrates
    (loopback, UDP) arrive with their fabric already built, so
    ``attach_network`` is skipped and ``run`` paces the event kernel
    against the wall clock.
    """

    def __init__(self, seed: int = 0, transport=None) -> None:
        if transport is None:
            from repro.transport.sim import SimBackend

            transport = SimBackend()
        self.transport = transport
        self.sim = transport.simulator
        self.clock = transport.clock
        self.rng = RngStreams(seed)
        self.network: Optional[Network] = transport.network
        self.unites = UNITES(self.sim)
        self.templates = TemplateCache()
        self.nodes: Dict[str, AdaptiveNode] = {}
        #: the process-wide pool's books when this world began
        self._pool0 = (PDU_POOL.acquired, PDU_POOL.recycled)

    # ------------------------------------------------------------------
    def attach_network(self, network: Network) -> Network:
        """Install the (already built) topology; its RNG is unified."""
        if self.network is not None:
            raise RuntimeError("system already has a network")
        self.network = self.transport.adopt_network(network)
        return self.network

    def node(
        self,
        name: str,
        mips: float = 25.0,
        costs: Optional[CpuCosts] = None,
        buffer_capacity: int = 1 << 20,
        admission_bps: float = 1e9,
        cores: int = 1,
    ) -> AdaptiveNode:
        """Assemble Host + TKO + MANTTS on network node ``name``."""
        if self.network is None:
            raise RuntimeError("attach_network() before creating nodes")
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        host = Host(
            self.sim,
            self.network,
            name,
            mips=mips,
            costs=costs,
            buffer_capacity=buffer_capacity,
            cores=cores,
        )
        synthesizer = TKOSynthesizer(self.templates)
        protocol = TKOProtocol(host, synthesizer)
        mantts = MANTTS(
            host,
            protocol=protocol,
            resources=ResourceManager(host, admission_bps=admission_bps),
        )
        mantts.unites = self.unites
        node = AdaptiveNode(host=host, protocol=protocol, mantts=mantts)
        self.nodes[name] = node
        return node

    def teardown_node(self, name: str) -> None:
        """Tear one host down: close its connections, abort its sessions,
        release its ports and reservations, and detach it from the network.

        The switching node stays in the topology (transit traffic keeps
        flowing through it); only the host on top goes away.  Idempotent
        in effect: tearing down an unknown name raises, tearing down a
        node twice is an error via the same check.
        """
        node = self.nodes.pop(name, None)
        if node is None:
            raise KeyError(f"unknown node {name!r}")
        mantts = node.mantts
        # application handles first: close() runs the full termination
        # phase (monitor stop, member-update signalling, session close)
        for conn in list(mantts.connections.values()):
            if not conn._failed:
                conn.close()
        # responder-side sessions and anything still open on the protocol
        for session in list(mantts.protocol.sessions.values()):
            if not session.closed:
                session.abort(f"{PEER_DEAD}: teardown of node {name}")
        # unclaimed responder reservations (initiator never showed up)
        for key, queue in list(mantts._unclaimed.items()):
            for ref in list(queue):
                mantts._cancel_res_guard(ref)
                mantts._release_unclaimed(key, ref)
        mantts.protocol.unlisten_all()
        self.network.detach_host(name)

    # ------------------------------------------------------------------
    def check_quiescent(self) -> List[str]:
        """Named violations of "nothing outlives its session"; ``[]`` when
        every connection is over and left nothing behind.

        A world that is merely still busy — a connection open, a session
        draining towards its close — is reported as ``not quiescent: …``;
        every other line is a leak: a closed session that is not a
        tombstone, a table entry or a pending kernel event that still
        points at one, a negotiation reply handler whose connection has
        ended, a ``session:*`` RNG stream nobody owns, a ledger
        that does not balance, or one that still holds a reservation when
        no connection is open.  (Signalling sessions live as long as their
        host and are not connections.)
        """
        out: List[str] = []
        open_rng_names = set()
        sessions_open = False  # besides signalling, either direction
        for name, node in self.nodes.items():
            mantts, manager = node.mantts, node.mantts.manager
            for ref in sorted(set(mantts.connections) | set(manager.connections)):
                conn = mantts.connections.get(ref) or manager.connections[ref]
                if conn.lifecycle.failed or (
                        conn.session is not None and conn.session.closed):
                    out.append(f"connection table entry for ended connection {ref}")
                else:
                    out.append(f"not quiescent: connection {ref} is open")
            for ref in sorted(mantts._pending):  # "<conn ref>:<member>:<attempt>"
                owner = ref.rsplit(":", 2)[0]
                if owner not in mantts.connections:
                    out.append(f"reply handler {ref} of ended connection {owner}")
            tables = {
                "port": node.host.ports.owners(),
                "protocol": node.protocol.sessions.values(),
                "peer-session": mantts._peer_sessions.values(),
                "signalling": mantts._sig_sessions.values(),
            }
            found: Dict[int, tuple] = {}  # id(session) -> (session, tables)
            for table, owners in tables.items():
                for s in owners:
                    if isinstance(s, TKOSession):  # not a listener
                        found.setdefault(id(s), (s, []))[1].append(table)
            for s, where in found.values():
                label = f"{name}:{s.conn_id} (in table: {', '.join(where)})"
                if not s.closed:
                    open_rng_names.add(s._rng_name)
                    sessions_open |= MANTTS_PORT not in (s.local_port, s.remote_port)
                    if s._closing:
                        out.append(f"not quiescent: session {label} is closing")
                elif (s.executor.pipeline is not None or s._send_queue
                      or s.timers is not None or s.state is not None
                      or s.context.session is not None):
                    out.append(f"closed session {label} is not a tombstone")
                elif where != ["signalling"]:  # that one is replaced at next use
                    out.append(f"table entry for closed session {label}")
            rm = mantts.resources
            if (rm.reserved_bps, rm.reserved_buffer) != rm.recount():
                out.append(f"admission ledger of {name} disagrees with its table")
        for fn in self.sim.pending_callbacks():
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, Timer):  # an expiry: look at what it calls
                fn = owner.fn
                owner = getattr(fn, "__self__", None)
            if (isinstance(owner, CompiledExecutor) and owner.s.closed) or (
                    isinstance(owner, Mechanism) and owner.session is None):
                out.append("pending event owned by a closed session: "
                           f"{fn.__qualname__}")
        for stream in sorted(self.rng._streams):
            if stream.startswith("session:") and stream not in open_rng_names:
                out.append(f"rng stream {stream} has no open owner")
        # PDUs in flight are busyness while anything above is; a leak after
        busy = "not quiescent: " if any(
            v.startswith("not quiescent: ") for v in out) else ""
        for name, node in self.nodes.items():
            rm = node.mantts.resources
            if (rm.reserved_bps or rm.reserved_buffer) and not (busy or sessions_open):
                out.append(f"admission ledger of {name} holds {rm.reserved_bps:g} b/s"
                           f" and {rm.reserved_buffer} B with no connection open")
        acquired = PDU_POOL.acquired - self._pool0[0]
        recycled = PDU_POOL.recycled - self._pool0[1]
        if acquired != recycled:
            out.append(f"{busy}PDU_POOL: {acquired} acquired, {recycled} recycled")
        arena = getattr(self.network, "arena", None)
        if arena is not None and arena.live_leases:
            out.append(f"{busy}slab arena holds {arena.live_leases} live leases")
        return out

    # ------------------------------------------------------------------
    def enable_telemetry(self, max_records: Optional[int] = None):
        """Turn on UNITES-X collection, clocked by this system's simulator.

        Returns the global telemetry handle so callers can export from it
        (``write_chrome_trace(system.enable_telemetry(), path)`` reads
        naturally in experiment scripts).
        """
        from repro.unites.obs.telemetry import TELEMETRY

        return TELEMETRY.enable(sim=self.sim, max_records=max_records)

    def enable_audit(self, **kwargs):
        """Turn on the QoS conformance audit plane for this system.

        Every connection subsequently instantiated by a node's MANTTS
        captures its negotiated contract and is measured against it.
        Keyword arguments configure the plane (``window``,
        ``warmup_windows``, ``loss_grace``, ``throughput_slack``,
        ``flight_capacity``, ``dump_dir``); returns the global
        :data:`~repro.unites.obs.audit.AUDIT` handle.
        """
        from repro.unites.obs.audit import AUDIT

        return AUDIT.enable(**kwargs)

    def serve_telemetry(self, host: str = "127.0.0.1", port: int = 0,
                        instance_labels=None):
        """Start the live HTTP telemetry plane for this system.

        Serves ``/metrics``, ``/healthz``, ``/connections``, and
        ``/audit`` from a daemon thread; returns the started
        :class:`~repro.unites.obs.server.TelemetryServer` (``.url`` has
        the bound address, ``.stop()`` shuts it down).
        ``instance_labels`` (e.g. ``{"shard": "2"}``) are stamped onto
        every exported metric sample — a shard worker serving its own
        scrape endpoint stays series-disjoint from its siblings.
        """
        from repro.unites.obs.server import TelemetryServer

        server = TelemetryServer(system=self, host=host, port=port,
                                 instance_labels=instance_labels)
        server.start()
        return server

    def run(self, until: Optional[float] = None, **kwargs) -> None:
        """Advance this system's world to timeline point ``until``.

        On the sim substrate this is plain event dispatch; on real
        substrates the backend paces the same event queue against the
        wall clock (extra keywords like ``stop_when`` pass through).
        """
        self.transport.run(until=until, **kwargs)

    @property
    def now(self) -> float:
        return self.sim.now
