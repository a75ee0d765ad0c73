"""The MANTTS entity and the application-facing MANTTS-API (§4.1).

One ``MANTTS`` instance runs on every ADAPTIVE host.  It owns the host's
TKO protocol object, listens on the well-known signalling port, and serves
two roles:

* **initiator** — :meth:`MANTTS.open` takes an ACD (Table 2) through the
  three-stage transformation of Figure 2, negotiates (implicitly or over
  the out-of-band channel) and returns an :class:`AdaptiveConnection`;
* **responder** — :meth:`MANTTS.register_service` binds an application
  port; arriving negotiation requests run admission control, arriving
  data sessions are synthesized from the negotiated (or piggybacked)
  configuration.

An ``AdaptiveConnection`` is the application handle: ``send`` / ``close``
plus the adaptive machinery — a network monitor feeding a policy engine
whose TSA rules reconfigure the live session (and its remote peers) when
conditions cross thresholds (§4.1.2).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.host.connmgr import ConnectionManager
from repro.host.nic import Host
from repro.mantts.acd import ACD
from repro.mantts.lifecycle import NEGOTIATION_TIMEOUT, ConnectionLifecycle
from repro.mantts.monitor import NetworkMonitor, NetworkState
from repro.mantts.negotiation import (
    MANTTS_PORT,
    SIGNALLING_CONFIG,
    decode,
    encode,
    respond_to_open,
)
from repro.mantts.policies import PolicyEngine
from repro.mantts.resources import ResourceManager
from repro.mantts.scs import SCS
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import TSC
from repro.tko import ends
from repro.tko.config import SessionConfig
from repro.tko.protocol import TKOProtocol
from repro.tko.session import TKOSession
from repro.tko.synthesizer import TKOSynthesizer

__all__ = ["MANTTS", "AdaptiveConnection", "NEGOTIATION_TIMEOUT"]

#: a responder holds an accepted-but-unclaimed reservation at most this
#: long before the guard rolls it back (covers initiators that vanish
#: without sending ``open-abort``)
RESERVATION_GUARD = 2 * NEGOTIATION_TIMEOUT


class MANTTS:
    """The per-host MANTTS entity."""

    def __init__(
        self,
        host: Host,
        protocol: Optional[TKOProtocol] = None,
        synthesizer: Optional[TKOSynthesizer] = None,
        resources: Optional[ResourceManager] = None,
        monitor_interval: float = 0.1,
        manager: Optional[ConnectionManager] = None,
    ) -> None:
        self.host = host
        self.protocol = protocol if protocol is not None else TKOProtocol(
            host, synthesizer or TKOSynthesizer()
        )
        self.synthesizer = self.protocol.synthesizer
        self.resources = resources if resources is not None else ResourceManager(
            host, admission_bps=1e9
        )
        self.monitor_interval = monitor_interval
        #: negotiation patience in this entity's clock domain — virtual
        #: seconds in simulation, wall seconds on a real substrate.  The
        #: reservation guard tracks it at 2x.  Default preserves every
        #: simulated timeline bit-for-bit.
        self.negotiation_timeout = NEGOTIATION_TIMEOUT
        #: extra negotiation attempts after a timeout (0 = the classic
        #: single-shot open, preserving simulated timelines).  Real lossy
        #: substrates set this >0 so a lost open-request/accept exchange
        #: retries with exponential backoff instead of failing setup.
        self.negotiation_retries = 0
        #: base backoff before retry k is ``backoff * 2**(k-1)`` seconds
        self.negotiation_backoff = 0.5
        #: uniform jitter fraction on top of each backoff (decorrelates
        #: two peers that timed out on the same lost exchange)
        self.negotiation_jitter = 0.25
        #: the per-host connection-scale layer: connection table, shared
        #: probe/SCS caches, coalesced timer groups, population gauges
        self.manager = manager if manager is not None else ConnectionManager(host)
        self.manager.bind(self)
        #: optional UNITES facade; when set, TMC requests are honoured
        self.unites = None
        #: connection refs are per-entity, so one host's churn never
        #: changes another run's (or host's) ref strings — refs travel in
        #: signalling messages and must be reproducible in isolation
        self._ref_counter = itertools.count(1)

        self._sig_sessions: Dict[str, TKOSession] = {}
        self._pending: Dict[str, Callable[[dict], None]] = {}
        self._probe_waiters: Dict[str, list] = {}
        self._services: Dict[int, dict] = {}
        #: (peer_host, service_port) -> negotiated config awaiting arrival
        self._negotiated: Dict[Tuple[str, int], SessionConfig] = {}
        #: (peer_host, service_port) -> most recent accepted reservation ref
        #: (introspection view; the FIFO below is the accounting truth)
        self._reservation_refs: Dict[Tuple[str, int], str] = {}
        #: (peer_host, service_port) -> accepted refs no data session has
        #: claimed yet, oldest first
        self._unclaimed: Dict[Tuple[str, int], List[str]] = {}
        #: (remote_host, remote_port, local_port) -> the reservation a live
        #: responder session claimed (released when that session closes)
        self._session_res: Dict[Tuple[str, int, int], str] = {}
        #: ref -> backstop timer rolling an unclaimed reservation back
        self._res_guards: Dict[str, object] = {}
        #: (remote_host, remote_port, local_port) -> live responder session
        self._peer_sessions: Dict[Tuple[str, int, int], TKOSession] = {}
        self.connections: Dict[str, "AdaptiveConnection"] = {}

        self.protocol.listen(MANTTS_PORT, self._sig_cfg_factory, self._on_sig_session)

    # ------------------------------------------------------------------
    # signalling channel plumbing
    # ------------------------------------------------------------------
    def _sig_cfg_factory(self, pdu, frame) -> SessionConfig:
        return SIGNALLING_CONFIG

    def _on_sig_session(self, session: TKOSession) -> None:
        session.on_deliver = lambda data, meta: self._handle_signalling(data, session)
        peer = session.remote_host
        session.on_signalling = lambda pdu: self._on_probe_reply(pdu, peer)

    def _sig_session(self, peer: str) -> TKOSession:
        sess = self._sig_sessions.get(peer)
        if sess is None or sess.closed:
            sess = self.protocol.create_session(
                SIGNALLING_CONFIG,
                peer,
                MANTTS_PORT,
                on_deliver=lambda data, meta: self._handle_signalling(data, None),
            )
            sess.on_signalling = lambda pdu, p=peer: self._on_probe_reply(pdu, p)
            sess.connect()
            self._sig_sessions[peer] = sess
        return sess

    # ------------------------------------------------------------------
    # active round-trip measurement (§3(D): RTT "used at run-time to
    # determine when to reconfigure")
    # ------------------------------------------------------------------
    def measure_rtt(self, peer: str, callback: Callable[[float], None]) -> None:
        """Send a PROBE over the control channel; callback gets the RTT.

        Unlike the network monitor's model-derived estimate, this is an
        end-to-end measurement through real queues and host processing.
        """
        from repro.tko.pdu import PduType

        sess = self._sig_session(peer)
        probe = sess.make_pdu(PduType.PROBE)
        probe.timestamp = self.host.sim.now
        self._probe_waiters.setdefault(peer, []).append(callback)
        sess.emit_control(probe)

    def _on_probe_reply(self, pdu, peer: str) -> None:
        from repro.tko.pdu import PduType

        if pdu.ptype is not PduType.PROBE_REPLY:
            return
        rtt = self.host.sim.now - pdu.timestamp
        waiters = self._probe_waiters.get(peer, [])
        if waiters:
            waiters.pop(0)(rtt)

    def _send_signalling(self, peer: str, msg: dict) -> None:
        self._sig_session(peer).send(encode(msg))

    # ------------------------------------------------------------------
    # responder side
    # ------------------------------------------------------------------
    def register_service(
        self,
        port: int,
        on_session: Optional[Callable[[TKOSession], None]] = None,
        on_deliver: Optional[Callable[[bytes, dict], None]] = None,
        default_config: Optional[SessionConfig] = None,
    ) -> None:
        """Bind an application service to ``port`` (passive open).

        ``on_session`` sees each arriving session; its ``on_ended`` belongs
        to MANTTS, which releases the session's reservation there.
        """
        if port == MANTTS_PORT:
            raise ValueError(f"port {MANTTS_PORT} is reserved for MANTTS signalling")
        self._services[port] = {
            "on_session": on_session,
            "on_deliver": on_deliver,
            "default_config": default_config,
        }
        self.protocol.listen(
            port,
            lambda pdu, frame: self._service_config(port, pdu, frame),
            lambda session: self._service_session(port, session),
        )

    def _service_config(self, port: int, pdu, frame) -> SessionConfig:
        """Responder Stage II: negotiated > piggybacked > service default."""
        negotiated = self._negotiated.get((frame.src, port))
        if negotiated is not None:
            return self._receiver_view(negotiated)
        carried = pdu.options.get("cfg")
        if isinstance(carried, dict):
            try:
                return self._receiver_view(SessionConfig.from_dict(carried))
            except (ValueError, TypeError):
                pass
        default = self._services[port]["default_config"]
        return default if default is not None else SessionConfig(connection="implicit")

    @staticmethod
    def _receiver_view(cfg: SessionConfig) -> SessionConfig:
        """The responder's session is always a unicast endpoint (a multicast
        sender's receivers each hold a unicast session back to it)."""
        if cfg.delivery == "multicast":
            return cfg.with_(delivery="unicast", connection="implicit")
        return cfg

    def _service_session(self, port: int, session: TKOSession) -> None:
        service = self._services[port]
        key = (session.remote_host, session.remote_port, session.local_port)
        self._peer_sessions[key] = session
        # The arriving data session claims the oldest reservation its
        # negotiation took (FIFO per (peer, port): concurrent opens from
        # one peer each claim their own ledger entry), and §4.1.3's
        # termination phase releases exactly that entry when it ends.
        res_key = (session.remote_host, port)
        queue = self._unclaimed.get(res_key)
        if queue:
            ref = queue.pop(0)
            if not queue:
                del self._unclaimed[res_key]
            self._cancel_res_guard(ref)
            self._session_res[key] = ref
        session.on_ended = lambda reason: self._responder_ended(key)
        if service["on_deliver"] is not None:
            session.on_deliver = service["on_deliver"]
        if service["on_session"] is not None:
            service["on_session"](session)

    def _responder_ended(self, key: Tuple[str, int, int]) -> None:
        """A responder session ended, however (FIN, abort, a handshake given
        up in ``syn-rcvd``): release its peer-session entry and reservation
        (its port went in the session's own teardown)."""
        self._peer_sessions.pop(key, None)
        ref = self._session_res.pop(key, None)
        if ref is not None:
            self.resources.release(ref)
            res_key = (key[0], key[2])
            if self._reservation_refs.get(res_key) == ref:
                del self._reservation_refs[res_key]

    # ------------------------------------------------------------------
    # signalling message handling
    # ------------------------------------------------------------------
    def _handle_signalling(self, data: bytes, session: Optional[TKOSession]) -> None:
        try:
            msg = decode(data)
        except ValueError:
            return
        mtype = msg.get("type")
        if mtype == "open-request":
            self._on_open_request(msg)
        elif mtype == "open-abort":
            self._on_open_abort(msg)
        elif mtype in ("open-accept", "open-refuse"):
            handler = self._pending.pop(msg.get("ref", ""), None)
            if handler is not None:
                handler(msg)
        elif mtype == "reconfig":
            self._on_reconfig(msg)
        elif mtype == "member-update":
            self._on_member_update(msg)

    def _on_open_request(self, msg: dict) -> None:
        ref = msg["ref"]
        initiator = msg["from"]
        port = msg["service_port"]
        if port not in self._services:
            self._send_signalling(
                initiator,
                {"type": "open-refuse", "ref": ref, "reason": f"no service on {port}"},
            )
            return
        # Mid-stream renegotiation replaces the session's existing
        # reservation rather than stacking a second one: release it before
        # admission, and reinstate it untouched if the new QoS is refused.
        prior_ref = prior_res = None
        session_key = None
        if msg.get("reneg"):
            data_port = msg.get("data_port")
            if data_port is not None:
                session_key = (initiator, data_port, port)
                prior_ref = self._session_res.pop(session_key, None)
            if prior_ref is None:  # legacy initiator: fall back to the view
                prior_ref = self._reservation_refs.pop((initiator, port), None)
            if prior_ref is not None:
                prior_res = self.resources.reservation(prior_ref)
                self.resources.release(prior_ref)
        verdict, final, payload = respond_to_open(msg, self.resources, conn_ref=ref)
        self.manager.note_admission(verdict)
        if verdict != "accept" and prior_res is not None:
            self.resources.admit(
                prior_ref, prior_res.throughput_bps, prior_res.buffer_bytes,
                tsc=prior_res.tsc,
            )
            self._reservation_refs[(initiator, port)] = prior_ref
            if session_key is not None:
                self._session_res[session_key] = prior_ref
        if verdict == "accept":
            assert final is not None
            self._negotiated[(initiator, port)] = final
            self._reservation_refs[(initiator, port)] = ref
            if msg.get("reneg"):
                if session_key is not None:
                    self._session_res[session_key] = ref
            else:
                self._enqueue_unclaimed(initiator, port, ref)
            if msg.get("group"):
                # multicast: join the delivery tree before data flows
                self.host.network.join_group(msg["group"], self.host.name)
            self._send_signalling(
                initiator, {"type": "open-accept", "ref": ref, "from": self.host.name, **payload}
            )
        else:
            self._send_signalling(
                initiator, {"type": "open-refuse", "ref": ref, "from": self.host.name, **payload}
            )

    # -- reservation bookkeeping (satellite of §4.1.3's termination) ----
    def _enqueue_unclaimed(self, initiator: str, port: int, ref: str) -> None:
        """Queue an accepted reservation until its data session claims it.

        A renegotiate-down retry supersedes the same connection's earlier
        attempt: any unclaimed ref with the same connection prefix is
        rolled back here, so a refuse→retry→accept sequence leaves exactly
        one ledger entry.  A backstop guard releases the reservation if no
        session (and no ``open-abort``) ever arrives.
        """
        key = (initiator, port)
        conn_prefix = ref.rsplit(":", 2)[0]
        queue = self._unclaimed.setdefault(key, [])
        for stale in [r for r in queue if r.rsplit(":", 2)[0] == conn_prefix]:
            queue.remove(stale)
            self._cancel_res_guard(stale)
            self.resources.release(stale)
        queue.append(ref)
        self._res_guards[ref] = self.manager.defer(
            2 * self.negotiation_timeout, lambda: self._res_guard_fired(key, ref)
        )

    def _cancel_res_guard(self, ref: str) -> None:
        guard = self._res_guards.pop(ref, None)
        if guard is not None:
            guard.cancel()

    def _res_guard_fired(self, key: Tuple[str, int], ref: str) -> None:
        self._res_guards.pop(ref, None)
        self._release_unclaimed(key, ref)

    def _release_unclaimed(self, key: Tuple[str, int], ref: str) -> None:
        queue = self._unclaimed.get(key)
        if not queue or ref not in queue:
            return
        queue.remove(ref)
        if not queue:
            del self._unclaimed[key]
        self.resources.release(ref)
        if self._reservation_refs.get(key) == ref:
            self._reservation_refs.pop(key, None)

    def _on_open_abort(self, msg: dict) -> None:
        """The initiator's open failed after we admitted it: roll back."""
        ref = msg.get("ref", "")
        key = (msg.get("from"), msg.get("service_port"))
        self._cancel_res_guard(ref)
        self._release_unclaimed(key, ref)

    def _on_reconfig(self, msg: dict) -> None:
        key = (msg["from"], msg["data_port"], msg["service_port"])
        session = self._peer_sessions.get(key)
        if session is None or session.closed:
            return
        try:
            cfg = self._receiver_view(SessionConfig.from_dict(msg["config"]))
        except (ValueError, TypeError):
            return
        self.synthesizer.reconfigure(session, cfg)
        self._negotiated[(msg["from"], msg["service_port"])] = cfg

    def _on_member_update(self, msg: dict) -> None:
        group = msg["group"]
        if msg["op"] == "join":
            self.host.network.join_group(group, self.host.name)
        else:
            self.host.network.leave_group(group, self.host.name)

    # ------------------------------------------------------------------
    # initiator side: the MANTTS-API
    # ------------------------------------------------------------------
    def open(
        self,
        acd: ACD,
        on_deliver: Optional[Callable[[bytes, dict], None]] = None,
        on_connected: Optional[Callable[["AdaptiveConnection"], None]] = None,
        on_closed: Optional[Callable[[], None]] = None,
        on_notify: Optional[Callable[[str, NetworkState], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
        binding: str = "dynamic",
        default_policies: bool = False,
        renegotiate: bool = False,
        adaptation=False,
        on_degraded=None,
        on_restored=None,
    ) -> "AdaptiveConnection":
        """Initiate an adaptive connection described by ``acd``.

        Returns the handle immediately; establishment is asynchronous
        (``on_connected`` / ``on_failed`` report the outcome).

        With ``default_policies=True`` and an ACD that carries no TSA
        rules of its own, MANTTS installs the policy bundle the selected
        TSC "embodies" (congestion-driven recovery switching and rate
        clamping, RTT-driven FEC for media) — see
        :func:`repro.mantts.policies.default_policies_for`.

        ``adaptation=True`` (or a dict of
        :class:`~repro.mantts.adaptation.AdaptationController` keyword
        overrides) attaches the run-time adaptation controller: failover
        re-derivation, the escalation ladder, graceful degradation with
        ``on_degraded`` / ``on_restored`` callbacks, and bounded-retry
        teardown when the destination stays unreachable.
        """
        conn = AdaptiveConnection(
            self,
            acd,
            on_deliver=on_deliver,
            on_connected=on_connected,
            on_closed=on_closed,
            on_notify=on_notify,
            on_failed=on_failed,
            binding=binding,
            default_policies=default_policies,
            renegotiate=renegotiate,
        )
        self.connections[conn.ref] = conn
        self.manager.connection_opening(conn)
        conn.lifecycle.begin()
        if adaptation and not conn._failed:
            from repro.mantts.adaptation import AdaptationController

            opts = dict(adaptation) if isinstance(adaptation, dict) else {}
            conn.adaptation = AdaptationController(
                conn, on_degraded=on_degraded, on_restored=on_restored, **opts
            )
        return conn


class AdaptiveConnection:
    """Application handle for one adaptive transport association."""

    __slots__ = (
        "mantts", "acd", "host", "ref", "on_deliver", "on_connected",
        "on_closed", "on_notify", "on_failed", "binding", "default_policies",
        "renegotiate", "tsc", "scs", "session", "monitor", "adaptation",
        "policies", "group", "members", "reconfig_log", "lifecycle",
    )

    def __init__(
        self,
        mantts: MANTTS,
        acd: ACD,
        on_deliver=None,
        on_connected=None,
        on_closed=None,
        on_notify=None,
        on_failed=None,
        binding: str = "dynamic",
        default_policies: bool = False,
        renegotiate: bool = False,
    ) -> None:
        self.mantts = mantts
        self.acd = acd
        self.host = mantts.host
        self.ref = f"{self.host.name}-{next(mantts._ref_counter)}"
        self.on_deliver = on_deliver
        self.on_connected = on_connected
        self.on_closed = on_closed
        self.on_notify = on_notify
        self.on_failed = on_failed
        self.binding = binding
        self.default_policies = default_policies
        #: §4.1.1: on refusal, "allow the application to re-negotiate at a
        #: lower quality of service" — one retry at the responder's offer
        self.renegotiate = renegotiate

        self.tsc: Optional[TSC] = None
        self.scs: Optional[SCS] = None
        self.session: Optional[TKOSession] = None
        self.monitor: Optional[NetworkMonitor] = None
        #: run-time adaptation controller (attached by ``MANTTS.open``)
        self.adaptation = None
        self.policies = PolicyEngine(self)
        self.group: Optional[str] = None
        self.members: List[str] = []
        self.reconfig_log: List[Tuple[float, str]] = []
        #: establishment-phase state machine (Figure 2/3); terminal flags
        #: and in-flight buffering live there
        self.lifecycle = ConnectionLifecycle(self)

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.host.sim

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def cfg(self) -> SessionConfig:
        if self.session is not None:
            return self.session.cfg
        assert self.scs is not None
        return self.scs.config

    # lifecycle-state views (kept under the historical private names;
    # tests and tools introspect these on the handle)
    @property
    def _renegotiated(self) -> bool:
        return self.lifecycle.renegotiated

    @property
    def _established(self) -> bool:
        return self.lifecycle.established

    @property
    def _failed(self) -> bool:
        return self.lifecycle.failed

    # ------------------------------------------------------------------
    # data path passthrough
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> int:
        """Queue an application message.

        During explicit negotiation the session does not exist yet; data
        accepted in that window is buffered and released in order once
        Stage III instantiates the session (failed negotiation discards it
        with the failure callback).  Returns 0 for buffered messages.
        """
        if self._failed:
            raise RuntimeError("connection failed to establish")
        if self.session is None:
            self.lifecycle.pending_sends.append(bytes(data))
            return 0
        return self.session.send(data)

    def close(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
        for member in self.members if self.group else []:
            self.mantts._send_signalling(
                member, {"type": "member-update", "group": self.group, "op": "leave"}
            )
        if self.session is not None:
            self.session.close()
        else:  # negotiation in flight (or already ended): end the open
            self.lifecycle.ended(ends.GRACEFUL_CLOSE)

    # ------------------------------------------------------------------
    # adaptation (the §4.1.2 reconfiguration actions)
    # ------------------------------------------------------------------
    def apply_overrides(self, overrides: dict, reason: str = "") -> bool:
        """Adjust-the-SCS: retune or segue the live session, both ends."""
        if self.session is None or self.session.closed:
            return False
        if all(getattr(self.cfg, k, None) == v for k, v in overrides.items()):
            return False  # no-op: the requested state is already in effect
        try:
            new_cfg = self.cfg.with_(**overrides)
        except (ValueError, TypeError) as exc:
            self.reconfig_log.append((self.now, f"rejected ({exc})"))
            return False
        self.mantts.synthesizer.reconfigure(self.session, new_cfg)
        self.reconfig_log.append((self.now, reason or str(sorted(overrides))))
        self._signal_reconfig(new_cfg)
        return True

    def change_tsc(self, tsc_name: str, state: NetworkState) -> bool:
        """Adjust-the-TSC: rederive the whole SCS under a new service class."""
        try:
            tsc = TSC(tsc_name)
        except ValueError:
            return False
        new_scs = specify_scs(self.acd, state, tsc=tsc, binding=self.binding)
        self.tsc = tsc
        self.scs = new_scs
        if self.session is None or self.session.closed:
            return False
        self.mantts.synthesizer.reconfigure(self.session, new_scs.config)
        self.reconfig_log.append((self.now, f"tsc->{tsc_name}"))
        self._signal_reconfig(new_scs.config)
        return True

    def notify_app(self, tag: str, state: NetworkState) -> None:
        """Application-specific action: the §4.1.2 call-back."""
        if self.on_notify is not None:
            self.on_notify(tag, state)

    def _signal_reconfig(self, cfg: SessionConfig) -> None:
        assert self.session is not None
        for member in (self.members if self.group else [self.session.remote_host]):
            self.mantts._send_signalling(
                member,
                {
                    "type": "reconfig",
                    "from": self.host.name,
                    "service_port": self.acd.service_port,
                    "data_port": self.session.local_port,
                    "config": cfg.to_dict(),
                },
            )

    # ------------------------------------------------------------------
    # multicast membership dynamics
    # ------------------------------------------------------------------
    def add_member(self, member: str) -> None:
        """A participant joins the conference (§2.1(B) dynamics)."""
        if not self.group:
            raise RuntimeError("not a multicast connection")
        if member in self.members:
            return
        self.members.append(member)
        ref = f"{self.ref}:{member}:late"
        self.mantts._pending[ref] = lambda msg: None
        self.mantts._send_signalling(
            member,
            {
                "type": "open-request",
                "ref": ref,
                "from": self.host.name,
                "service_port": self.acd.service_port,
                "config": self.cfg.to_dict(),
                "throughput_bps": self.acd.quantitative.avg_throughput_bps,
                "group": self.group,
            },
        )
        if self.session is not None and not self.session.closed:
            self.session.context.delivery.membership_changed(list(self.members))

    def remove_member(self, member: str) -> None:
        """A participant leaves; pending ACK aggregation is re-evaluated."""
        if not self.group or member not in self.members:
            return
        self.members.remove(member)
        self.mantts._send_signalling(
            member, {"type": "member-update", "group": self.group, "op": "leave"}
        )
        if self.session is not None and not self.session.closed:
            self.session.context.delivery.membership_changed(list(self.members))

    # ------------------------------------------------------------------
    # internal callbacks
    # ------------------------------------------------------------------
    def _on_network_sample(self, state: NetworkState) -> None:
        self.policies.evaluate(state)

    def _deliver(self, data: bytes, meta: dict) -> None:
        if self.on_deliver is not None:
            self.on_deliver(data, meta)

    def _retire(self) -> None:
        """Terminal (closed or failed): let go of whatever points back at
        this handle, so reference counting frees it once the application
        does.  A kept handle still answers ``session`` (a tombstone), ``acd``
        / ``tsc`` / ``scs``, ``reconfig_log``, ``policies.firings``."""
        if self.monitor is not None:
            self.monitor.retire()
            self.monitor = None
        self.policies.connection = self.lifecycle.conn = None
        self.on_deliver = self.on_connected = self.on_closed = None
        self.on_notify = self.on_failed = None
