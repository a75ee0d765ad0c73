"""Connection-establishment state machine (Figure 2 stages + Figure 3).

Extracted from :mod:`repro.mantts.api` so the ``AdaptiveConnection``
handle keeps only the application surface (send/close/adapt/membership)
while the one-shot establishment sequence — transformation stages,
explicit negotiation with renegotiate-once, timeout, weakest-QoS merge,
Stage III instantiation, and the two terminal transitions, ``connected``
and ``ended`` — lives here as :class:`ConnectionLifecycle`.

The split mirrors the paper's structure: §4.1.1's connection-management
phases (establishment, data transfer, termination) are distinct services;
the handle delegates the establishment phase to this object and the data
transfer phase to the TKO session it produces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.mantts.tsc import select_tsc
from repro.tko import ends
from repro.tko.config import SessionConfig
from repro.unites.obs.audit import AUDIT as _AUDIT
from repro.unites.obs.telemetry import NULL_SPAN, TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.mantts.api import AdaptiveConnection

#: seconds an initiator waits for all negotiation replies before failing
NEGOTIATION_TIMEOUT = 3.0


def _lowered(cfg: SessionConfig, counter: SessionConfig) -> dict:
    """What a responder's counter-proposal lowers in ``cfg``: a session
    runs at the *weakest* QoS every party accepted."""
    merged = {}
    if counter.window < cfg.window:
        merged["window"] = counter.window
    if counter.rate_pps is not None and (
        cfg.rate_pps is None or counter.rate_pps < cfg.rate_pps
    ):
        merged["rate_pps"] = counter.rate_pps
    return merged


class ConnectionLifecycle:
    """Drives one ``AdaptiveConnection`` from ACD to established (or failed).

    Owns the establishment-phase state: the renegotiate-once latch, the
    established/failed terminal flags, data buffered while negotiation is
    in flight, and the telemetry spans covering setup and negotiation.
    """

    __slots__ = ("conn", "renegotiated", "failed", "established",
                 "reneg_active", "_reneg_attempts", "_setup_attempts",
                 "pending_sends", "sent_refs", "setup_span", "nego_span")

    def __init__(self, conn: "AdaptiveConnection") -> None:
        self.conn = conn
        #: §4.1.1: on refusal, "allow the application to re-negotiate at a
        #: lower quality of service" — one retry at the responder's offer
        self.renegotiated = False
        self.failed = False
        self.established = False
        #: a mid-stream renegotiation is in flight (pause/drain/resume)
        self.reneg_active = False
        self._reneg_attempts = 0
        #: timed-out setup negotiations retried so far (lossy-path
        #: hardening; bounded by ``mantts.negotiation_retries``)
        self._setup_attempts = 0
        #: messages accepted while negotiation is still in flight; flushed
        #: into the session the moment Stage III instantiates it
        self.pending_sends: List[bytes] = []
        #: (member, ref) per open-request sent — on failure each contacted
        #: responder gets an ``open-abort`` so its reservation rolls back
        self.sent_refs: List[tuple] = []
        # Async telemetry spans; initialized to the no-op span so every
        # exit path (failure before begin(), double-fail, ...) may end()
        # them unconditionally.
        self.setup_span = NULL_SPAN
        self.nego_span = NULL_SPAN

    @property
    def sim(self):
        return self.conn.host.sim

    @property
    def negotiation_timeout(self) -> float:
        """Seconds to wait for negotiation replies — the per-MANTTS value.

        Virtual seconds on the sim substrate, wall seconds on a real one
        (the injected clock decides); defaults to the module constant, so
        simulated timelines are unchanged.
        """
        return self.conn.mantts.negotiation_timeout

    # ------------------------------------------------------------------
    # establishment (Figure 2 stages + Figure 3 negotiation)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        c = self.conn
        acd = c.acd
        primary = acd.participants[0]
        self.setup_span = _TELEMETRY.begin(
            "connection-setup", "mantts", conn=c.ref, peer=primary
        )
        manager = c.mantts.manager
        c.monitor = manager.monitor_for(
            primary, c.mantts.monitor_interval, conn=c
        )
        state = c.monitor.snapshot()
        if not state.reachable:
            self.ended(f"{ends.PEER_DEAD}: no route to {primary}")
            return
        c.tsc = select_tsc(acd)                      # Stage I
        c.scs = manager.scs_for(acd, state, c.tsc, c.binding)  # Stage II
        c.members = list(acd.participants)
        if acd.is_multicast:
            c.group = f"mc-{c.ref}"
        c.policies.add_rules(acd.tsa)
        if c.default_policies and not acd.tsa:
            from repro.mantts.policies import default_policies_for

            c.policies.add_rules(default_policies_for(c.tsc, c.scs.config))
        if c.scs.config.connection == "implicit" and not acd.is_multicast:
            # implicit negotiation: configuration rides the first DATA PDU
            self.instantiate(c.scs.config)
        else:
            self.negotiate_explicit()

    def negotiate_explicit(self, throughput_bps: Optional[float] = None) -> None:
        c = self.conn
        assert c.scs is not None
        self.nego_span.end(outcome="superseded")  # no-op except on renegotiation
        self.nego_span = _TELEMETRY.begin(
            "negotiation", "mantts", parent=self.setup_span,
            conn=c.ref, attempt="retry" if self.renegotiated else "first",
        )
        acd = c.acd
        requested = throughput_bps or acd.quantitative.avg_throughput_bps
        outstanding = set(c.members)
        results: Dict[str, dict] = {}
        timeout = self.sim.schedule(
            self.negotiation_timeout, self._negotiation_timeout, outstanding
        )

        def reply_handler(member: str):
            def on_reply(msg: dict) -> None:
                if self.conn is None or self.established:  # ended, or done
                    return
                results[member] = msg
                outstanding.discard(member)
                if msg["type"] == "open-refuse":
                    self.sim.cancel(timeout)
                    offer = float(msg.get("offer_bps", 0.0))
                    if (
                        c.renegotiate
                        and not self.renegotiated
                        and not c.group
                        and offer > 0.0
                    ):
                        # retry once at whatever the responder can admit
                        self.renegotiated = True
                        c.scs.note(
                            f"renegotiating down: {member} offered {offer:.0f} bps"
                        )
                        self._clamp_scs_to(offer)
                        self.negotiate_explicit(throughput_bps=offer)
                        return
                    self.ended(f"{ends.ADMISSION_REFUSED}: {member}: "
                               f"{msg.get('reason', '?')}")
                    return
                if not outstanding:
                    self.sim.cancel(timeout)
                    self.nego_span.end(outcome="accept", members=len(results))
                    self._complete_negotiation(results)
            return on_reply

        attempt = "retry" if self.renegotiated else "first"
        if self._setup_attempts:
            # timeout-retry refs must not collide with (or resurrect)
            # handlers from the attempt that timed out
            attempt = f"{attempt}~{self._setup_attempts}"
        for member in c.members:
            ref = f"{c.ref}:{member}:{attempt}"
            c.mantts._pending[ref] = reply_handler(member)
            self.sent_refs.append((member, ref))
            c.mantts._send_signalling(
                member,
                {
                    "type": "open-request",
                    "ref": ref,
                    "from": c.host.name,
                    "service_port": acd.service_port,
                    "config": c.scs.config.to_dict(),
                    "throughput_bps": requested,
                    "min_throughput_bps": requested * (0.5 if self.renegotiated else 0.25),
                    "group": c.group,
                    "tsc": c.tsc.value if c.tsc is not None else None,
                },
            )

    def _clamp_scs_to(self, bps: float) -> None:
        """Scale the proposed configuration down to an offered bit rate."""
        c = self.conn
        assert c.scs is not None
        cfg = c.scs.config
        overrides = {}
        if cfg.rate_pps is not None:
            seg = cfg.segment_size or 1024
            overrides["rate_pps"] = max(1.0, bps / (8 * seg))
        if overrides:
            c.scs.config = cfg.with_(**overrides)

    def _abort_sent_refs(self) -> None:
        """Tell every responder contacted so far to drop what it admitted,
        and forget the reply handlers: a late reply finds none."""
        c = self.conn
        for member, ref in self.sent_refs:
            c.mantts._pending.pop(ref, None)
            c.mantts._send_signalling(
                member,
                {
                    "type": "open-abort",
                    "ref": ref,
                    "from": c.host.name,
                    "service_port": c.acd.service_port,
                },
            )
        self.sent_refs.clear()

    def _negotiation_timeout(self, outstanding: set) -> None:
        if self.established or self.conn is None:
            return
        m = self.conn.mantts
        if self._setup_attempts < m.negotiation_retries:
            self._setup_attempts += 1
            self._retry_negotiation()
            return
        self.ended(f"{ends.NEGOTIATION_TIMEOUT}: waiting for {sorted(outstanding)}")

    def _retry_negotiation(self) -> None:
        """Timed-out open on a lossy path: roll back, back off, go again.

        Every contacted responder gets an ``open-abort`` for the stale
        ref (a reservation its accept may have charged must not stay on
        the remote ledger — the recipient no-ops when it holds nothing),
        whose reply handler is dropped, and a fresh
        :meth:`negotiate_explicit` is scheduled after an exponential
        backoff with deterministic per-attempt jitter.
        """
        import random

        c = self.conn
        m = c.mantts
        self.nego_span.end(outcome="timeout-retry")
        self._abort_sent_refs()
        base = m.negotiation_backoff * (2 ** (self._setup_attempts - 1))
        # string-seeded: reproducible per (connection, attempt), and
        # decorrelated between the two ends of a lost exchange
        rng = random.Random(f"{c.host.name}|{c.ref}|retry{self._setup_attempts}")
        delay = base * (1.0 + m.negotiation_jitter * rng.random())
        if c.scs is not None:
            c.scs.note(
                f"negotiation attempt {self._setup_attempts} timed out; "
                f"retrying in {delay:.3f}s"
            )

        def go() -> None:
            if not self.established and self.conn is not None:
                self.negotiate_explicit()

        self.sim.schedule(delay, go)

    def _complete_negotiation(self, results: Dict[str, dict]) -> None:
        """Merge counters: the session runs at the *weakest* accepted QoS."""
        c = self.conn
        assert c.scs is not None
        final = c.scs.config
        for msg in results.values():
            merged = _lowered(final, SessionConfig.from_dict(msg["config"]))
            if merged:
                final = final.with_(**merged)
                c.scs.note(f"countered by {msg.get('from', '?')}: {merged}")
        self.instantiate(final)

    def instantiate(self, cfg: SessionConfig) -> None:
        """Stage III: hand the SCS to the TKO synthesizer."""
        c = self.conn
        assert c.scs is not None
        c.scs.config = cfg
        acd = c.acd
        with _TELEMETRY.span("session-instantiate", "mantts", conn=c.ref):
            c.session = c.mantts.protocol.create_session(
                cfg,
                c.group if c.group else acd.participants[0],
                acd.service_port,
                group=c.group,
                members=c.members if c.group else None,
                on_deliver=c._deliver,
                on_connected=self.connected,
                on_ended=self.ended,
            )
            c.session.connect()
        if _AUDIT.enabled:
            # contract capture: the negotiated QoS is now final, the
            # session exists, and no data has flowed — the instant the
            # audit plane's conformance clock should start
            _AUDIT.attach_connection(c)
        for data in self.pending_sends:
            c.session.send(data)
        self.pending_sends.clear()
        if c.monitor is not None:
            c.monitor.on_sample.append(c._on_network_sample)
            c.monitor.start()
        unites = c.mantts.unites
        if unites is not None and acd.tmc is not None:
            unites.instrument(c, acd.tmc)

    # ------------------------------------------------------------------
    # mid-stream renegotiation (§4.1.2 "reconfigure ... in response to
    # changing network characteristics", run against a *live* session)
    # ------------------------------------------------------------------
    def renegotiate_midstream(
        self,
        new_cfg: SessionConfig,
        throughput_bps: Optional[float] = None,
        on_done: Optional[callable] = None,
    ) -> bool:
        """Pause → drain → re-negotiate → apply both ends → resume.

        The TKO session's pump is gated and the wire drained (every
        outstanding PDU acknowledged) before the configuration swap, so no
        PDU can be lost or double-delivered across the reconfiguration.
        On refusal or timeout the old configuration stays in force and the
        session resumes untouched.  ``on_done(ok)`` reports the outcome;
        the return value says whether the attempt started at all.
        """
        c = self.conn
        done = on_done if on_done is not None else (lambda ok: None)
        session = c.session if c is not None else None
        if (
            session is None  # not instantiated yet, or the handle is retired
            or not self.established
            or self.failed
            or self.reneg_active
            or c.group  # multicast renegotiation is out of scope
            or session.closed
        ):
            done(False)
            return False
        self.reneg_active = True
        self._reneg_attempts += 1
        peer = session.remote_host
        span = _TELEMETRY.begin(
            "renegotiation", "mantts", conn=c.ref,
            attempt=self._reneg_attempts, peer=peer,
        )
        finished = False

        def finish(ok: bool, outcome: str) -> None:
            nonlocal finished
            if finished:
                return
            finished = True
            self.reneg_active = False
            span.end(outcome=outcome)
            if not session.closed:
                session.resume()
            done(ok)

        session.pause()
        drain_guard = self.sim.schedule(
            self.negotiation_timeout, lambda: finish(False, "drain-timeout")
        )

        def proceed() -> None:
            if finished:
                return
            self.sim.cancel(drain_guard)
            if session.closed or self.failed:
                finish(False, "session-gone")
                return
            ref = f"{c.ref}:{peer}:reneg{self._reneg_attempts}"
            requested = throughput_bps or c.acd.quantitative.avg_throughput_bps

            def on_timeout() -> None:
                c.mantts._pending.pop(ref, None)  # drop a late reply
                finish(False, "timeout")

            timeout = self.sim.schedule(self.negotiation_timeout, on_timeout)

            def on_reply(msg: dict) -> None:
                if finished:
                    return
                self.sim.cancel(timeout)
                if msg.get("type") != "open-accept":
                    finish(False, "refused")
                    return
                final = new_cfg
                if isinstance(msg.get("config"), dict):
                    merged = _lowered(final, SessionConfig.from_dict(msg["config"]))
                    if merged:
                        final = final.with_(**merged)
                c.mantts.synthesizer.reconfigure(session, final)
                if c.scs is not None:
                    c.scs.config = final
                c.reconfig_log.append((c.now, "renegotiated"))
                c._signal_reconfig(final)
                finish(True, "accept")

            c.mantts._pending[ref] = on_reply
            c.mantts._send_signalling(
                peer,
                {
                    "type": "open-request",
                    "ref": ref,
                    "reneg": True,
                    "from": c.host.name,
                    "service_port": c.acd.service_port,
                    "data_port": session.local_port,
                    "config": new_cfg.to_dict(),
                    "throughput_bps": requested,
                    "min_throughput_bps": 0.0,
                    "group": None,
                    "tsc": c.tsc.value if c.tsc is not None else None,
                },
            )

        session.drain(proceed)
        return True

    # ------------------------------------------------------------------
    # terminal transitions
    # ------------------------------------------------------------------
    def connected(self) -> None:
        c = self.conn
        if c is None or self.established:
            # a late success signal cannot resurrect an ended (timed-out,
            # failed) establishment, and a duplicate must not re-fire it
            return
        self.established = True
        self.setup_span.end(outcome="connected")
        c.mantts.manager.connection_established(c)
        if c.on_connected is not None:
            c.on_connected(c)

    def ended(self, reason: str) -> None:
        """The one terminal transition, whatever ended the connection: it
        leaves both tables and the handle retires, once.  A failed open
        (:func:`repro.tko.ends.failed_open`) fires ``on_failed(reason)``;
        every other end ``on_closed()``.  A failed open, and one closed
        while its negotiation was still in flight, roll back what the
        responders admitted for it."""
        c = self.conn
        if c is None:  # already ended: nothing may re-report it
            return
        self.failed = ends.failed_open(reason, self.established)
        if self.failed or c.session is None:
            self.nego_span.end(outcome="fail" if self.failed else "closed")
            self.setup_span.end(outcome="failed" if self.failed else "closed",
                                reason=reason)
            if self.failed and _AUDIT.enabled:
                _AUDIT.note_teardown(c.ref, reason)
            # a refused, timed-out or abandoned open must not leave the
            # remote ledger charged (the recipient no-ops when it holds
            # nothing)
            self._abort_sent_refs()
        c.mantts.connections.pop(c.ref, None)
        c.mantts.manager.connection_ended(c, reason)
        on_failed, on_closed = c.on_failed, c.on_closed
        c._retire()
        if self.failed:
            if on_failed is not None:
                on_failed(reason)
        elif on_closed is not None:
            on_closed()
