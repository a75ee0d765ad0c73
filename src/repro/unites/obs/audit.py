"""QoS conformance auditing: negotiated contract vs delivered service.

UNITES exists to answer one question (§4.3): *is each connection actually
receiving the QoS that MANTTS negotiated for it?*  This module closes
that loop in the style of ATM traffic-contract conformance monitoring:

* a :class:`QoSContract` is captured at Stage III instantiation from the
  connection's ``QuantitativeQoS``/``QualitativeQoS`` (the hook lives in
  :meth:`repro.mantts.lifecycle.ConnectionLifecycle.instantiate`);
* a per-connection :class:`QoSAuditor` rides the TKO session observer
  channel on **both** endpoints — send-side events from the initiator's
  session, delivery events from the responder session the audit plane
  matches up when it is demultiplexed into existence — and folds them
  into **sliding sim-time windows**;
* at each window close the delivered throughput / delay / jitter / loss
  / ordering are checked against the contract; breaches become typed
  :class:`QoSViolation` events, ``qos_conformance_*`` registry metrics,
  flight-recorder entries, and (on the first breach) a black-box dump
  (:mod:`repro.unites.obs.flight`).

Measurement semantics (all **sim-time**, never wall-clock, so verdicts
are bit-identical under the executor and the test tree's oracle):

* *throughput* — application bytes delivered per window, checked only
  while the sender is actually offering load (bytes sent, a non-empty
  send queue, or outstanding PDUs) and after a configurable warm-up;
* *delay* — the worst delivery latency in the window;
* *jitter* — the standard deviation of delivery latency in the window
  (the paper's definition, matching ``SessionStats.jitter``);
* *loss* — residual wire-level DATA loss at the receiver: sequence holes
  that stay unfilled past ``loss_grace`` seconds count as lost (reliable
  flows fill holes by retransmission; FEC flows repair at message level,
  so their audited loss reflects pre-repair wire loss);
* *ordering* — deliveries whose message id regresses, when the contract
  asked for ordered delivery.

Everything is gated by the process-global :data:`AUDIT` plane, disabled
by default: the hooks in the protocol/lifecycle cost one attribute test
when off, and the session hot paths are untouched (the observer list is
only walked when an auditor attached).  This module is a leaf: stdlib
plus the other ``obs`` leaves only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.unites.obs.flight import FlightRecorder
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

#: the audited service dimensions, in report order
KINDS = ("throughput", "delay", "jitter", "loss", "ordering")

#: absolute slack added to contract bounds before a breach is declared
_EPS = 1e-12


@dataclass(frozen=True)
class QoSContract:
    """The negotiated service level one connection is entitled to."""

    connection: str
    avg_throughput_bps: float
    peak_throughput_bps: float
    max_latency: Optional[float]
    max_jitter: Optional[float]
    loss_tolerance: float
    ordered: bool
    captured_at: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def describe(self) -> str:
        parts = [f"throughput>={self.avg_throughput_bps:.0f}bps"]
        if self.max_latency is not None:
            parts.append(f"latency<={self.max_latency:g}s")
        if self.max_jitter is not None:
            parts.append(f"jitter<={self.max_jitter:g}s")
        parts.append(f"loss<={self.loss_tolerance:g}")
        parts.append("ordered" if self.ordered else "unordered")
        return " ".join(parts)


@dataclass(frozen=True)
class QoSViolation:
    """One conformance breach: a window whose measurement broke the contract."""

    time: float          #: sim time of the window close that detected it
    connection: str
    kind: str            #: one of :data:`KINDS`
    measured: float
    bound: float
    window_index: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def astuple(self) -> tuple:
        return (
            self.time, self.connection, self.kind,
            self.measured, self.bound, self.window_index, self.detail,
        )


class _Window:
    """Accumulator for one sliding sim-time window."""

    __slots__ = (
        "idx", "sent_pdus", "sent_bytes", "retransmits",
        "delivered_msgs", "delivered_bytes",
        "lat_sum", "lat_sq", "lat_max", "reorders",
        "data_pdus", "dup_pdus", "lost_pdus",
    )

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.sent_pdus = 0
        self.sent_bytes = 0
        self.retransmits = 0
        self.delivered_msgs = 0
        self.delivered_bytes = 0
        self.lat_sum = 0.0
        self.lat_sq = 0.0
        self.lat_max = 0.0
        self.reorders = 0
        self.data_pdus = 0
        self.dup_pdus = 0
        self.lost_pdus = 0

    @property
    def active(self) -> bool:
        return bool(self.delivered_msgs or self.sent_pdus or self.data_pdus)

    def jitter(self) -> float:
        n = self.delivered_msgs
        if n < 2:
            return 0.0
        mean = self.lat_sum / n
        var = max(0.0, self.lat_sq / n - mean * mean)
        return var ** 0.5

    def summary(self) -> Dict[str, Any]:
        return {
            "index": self.idx,
            "sent_pdus": self.sent_pdus,
            "retransmits": self.retransmits,
            "delivered_msgs": self.delivered_msgs,
            "delivered_bytes": self.delivered_bytes,
            "latency_max": self.lat_max,
            "jitter": self.jitter(),
            "reorders": self.reorders,
            "data_pdus": self.data_pdus,
            "lost_pdus": self.lost_pdus,
        }


class QoSAuditor:
    """Continuous conformance measurement for one connection.

    Attach the initiator's session with :meth:`attach_sender`; the audit
    plane attaches the responder session (delivery side) when it appears.
    The auditor is strictly *passive*: it schedules no kernel events and
    mutates no protocol state, so enabling it cannot perturb the
    simulated world — windows advance lazily, on whichever observer
    event or monitor sample next crosses a window boundary.
    """

    #: hard caps so a pathological run cannot grow unbounded state
    MAX_VIOLATIONS = 256
    MAX_WINDOWS = 512
    MAX_MISSING = 4096

    def __init__(
        self,
        contract: QoSContract,
        window: float = 0.25,
        warmup_windows: int = 1,
        loss_grace: float = 2.0,
        throughput_slack: float = 0.05,
        recorder: Optional[FlightRecorder] = None,
        plane: Optional["AuditPlane"] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive (seconds of sim time)")
        self.contract = contract
        self.ref = contract.connection
        self.window = float(window)
        self.warmup_windows = int(warmup_windows)
        self.loss_grace = float(loss_grace)
        self.throughput_slack = float(throughput_slack)
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.plane = plane
        self.conn = None          #: AdaptiveConnection (duck-typed; optional)
        self.sender = None        #: initiator-side TKOSession
        self.receiver = None      #: responder-side TKOSession
        self.enabled = True

        self.violations: List[QoSViolation] = []
        self.violations_dropped = 0
        self.windows: deque = deque(maxlen=self.MAX_WINDOWS)
        self.checked: Dict[str, int] = {}
        self.violated: Dict[str, int] = {}
        self.decisions: List[Dict[str, Any]] = []   #: adaptation cross-links
        self.closed_windows = 0
        self.evaluated_windows = 0
        self.violating_windows = 0
        self.teardown: Optional[str] = None

        self._first_idx: Optional[int] = None
        self._cur: Optional[_Window] = None
        self._hi_seq: Optional[int] = None
        self._missing: Dict[int, float] = {}
        self._last_msg_id: Optional[int] = None
        self._last_summary: Dict[str, Any] = {}
        self._dumped: set = set()
        #: backlog state as of the *previous* observation — idle windows
        #: are only judged against the contract when the sender was
        #: already backlogged before the event that closed them (a send
        #: that lands on a window boundary must not convict the idle
        #: window it closes)
        self._prev_backlogged = False

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach_sender(self, session) -> None:
        self.sender = session
        if self._cur is None:
            idx = int(session.sim.now / self.window)
            self._first_idx = idx
            self._cur = _Window(idx)
        session.observers.append(self._on_sender_event)

    def attach_receiver(self, session) -> None:
        self.receiver = session
        if self._cur is None:
            idx = int(session.sim.now / self.window)
            self._first_idx = idx
            self._cur = _Window(idx)
        session.observers.append(self._on_receiver_event)

    def _now(self) -> float:
        s = self.sender or self.receiver
        return s.sim.now if s is not None else 0.0

    # ------------------------------------------------------------------
    # observer callbacks (sim-time only; must never mutate protocol state)
    # ------------------------------------------------------------------
    def _on_sender_event(self, event: str, session, **d) -> None:
        if not self.enabled:
            return
        now = session.sim.now
        self._roll(now)
        if event == "pdu-sent":
            pdu = d.get("pdu")
            if pdu is not None and getattr(pdu.ptype, "value", "") == "data":
                w = self._cur
                w.sent_pdus += 1
                w.sent_bytes += int(d.get("size", 0))
        elif event == "retransmit":
            self._cur.retransmits += 1
            self.recorder.note(
                "retransmit", now, seq=d.get("seq"), retries=d.get("retries")
            )
        elif event == "abort":
            self._on_teardown(now, str(d.get("reason", "")))
            return
        elif event == "close":
            self.finalize()
            return
        self._prev_backlogged = self._sender_backlogged()

    def _on_receiver_event(self, event: str, session, **d) -> None:
        if not self.enabled:
            return
        now = session.sim.now
        self._roll(now)
        if event == "deliver":
            w = self._cur
            nbytes = int(d.get("nbytes", 0))
            latency = float(d.get("latency", 0.0))
            w.delivered_msgs += 1
            w.delivered_bytes += nbytes
            w.lat_sum += latency
            w.lat_sq += latency * latency
            if latency > w.lat_max:
                w.lat_max = latency
            msg_id = d.get("msg_id")
            if msg_id is not None:
                if self._last_msg_id is not None and msg_id < self._last_msg_id:
                    w.reorders += 1
                else:
                    self._last_msg_id = msg_id
            self.recorder.note(
                "deliver", now, msg_id=msg_id, nbytes=nbytes, latency=latency
            )
        elif event == "pdu-received":
            if d.get("corrupted"):
                return
            pdu = d.get("pdu")
            if pdu is None or getattr(pdu.ptype, "value", "") != "data":
                return
            self._track_seq(int(pdu.seq), now)
        elif event == "abort":
            self._on_teardown(now, str(d.get("reason", "")))
            return
        self._prev_backlogged = self._sender_backlogged()

    def _track_seq(self, seq: int, now: float) -> None:
        """Receiver-side hole accounting: loss = holes unfilled past grace."""
        w = self._cur
        if self._hi_seq is None:
            # join the stream wherever it starts (implicit opens sync here)
            self._hi_seq = seq
            w.data_pdus += 1
            return
        if seq > self._hi_seq:
            missing = self._missing
            for hole in range(self._hi_seq + 1, seq):
                if len(missing) >= self.MAX_MISSING:
                    w.lost_pdus += 1    # overflow: resolve eagerly as lost
                else:
                    missing[hole] = now
            self._hi_seq = seq
            w.data_pdus += 1
        elif seq in self._missing:
            del self._missing[seq]
            w.data_pdus += 1
        else:
            w.dup_pdus += 1

    # ------------------------------------------------------------------
    # monitor samples (keep windows rolling through delivery silence)
    # ------------------------------------------------------------------
    def on_network_sample(self, state) -> None:
        if not self.enabled:
            return
        now = self._now()
        self._roll(now)
        self.recorder.note(
            "sample", now,
            rtt=getattr(state, "rtt", None),
            congestion=getattr(state, "congestion", None),
            loss_rate=getattr(state, "loss_rate", None),
            bottleneck_bps=getattr(state, "bottleneck_bps", None),
            reachable=getattr(state, "reachable", None),
        )
        self._prev_backlogged = self._sender_backlogged()

    # ------------------------------------------------------------------
    # adaptation cross-links (plane routes controller decisions here)
    # ------------------------------------------------------------------
    def note_adaptation(self, decision: Dict[str, Any]) -> None:
        if len(self.decisions) < self.MAX_VIOLATIONS:
            self.decisions.append(decision)
        when = decision.get("time", self._now())
        details = {k: v for k, v in decision.items() if k not in ("time", "kind")}
        self.recorder.note("adapt", when, **details)

    # ------------------------------------------------------------------
    # window machinery
    # ------------------------------------------------------------------
    def _roll(self, now: float) -> None:
        """Close every window whose end precedes ``now`` (lazy advance)."""
        cur = self._cur
        if cur is None:
            return
        target = int(now / self.window)
        while cur.idx < target:
            self._close(cur)
            cur = _Window(cur.idx + 1)
            self._cur = cur

    def finalize(self) -> None:
        """Force the current partial window closed (end-of-run scorecards)."""
        cur = self._cur
        if cur is not None and cur.active:
            self._close(cur)
            self._cur = _Window(cur.idx + 1)

    def _close(self, w: _Window) -> None:
        end = (w.idx + 1) * self.window
        # resolve sequence holes that outlived the grace period
        if self._missing:
            cutoff = end - self.loss_grace
            lost = [s for s, t0 in self._missing.items() if t0 <= cutoff]
            for s in lost:
                del self._missing[s]
            w.lost_pdus += len(lost)

        checked_before = sum(self.checked.values())
        breaches = self._evaluate(w, end)
        self.closed_windows += 1
        summary = w.summary()
        if w.active or breaches:
            self.windows.append(summary)
            self._last_summary = summary
            self.recorder.note("window", end, **summary)
        if sum(self.checked.values()) > checked_before:
            self.evaluated_windows += 1
            if breaches:
                self.violating_windows += 1
        if _TELEMETRY.enabled:
            labels = {"conn": self.ref}
            m = _TELEMETRY.metrics
            m.gauge(
                "qos_conformance_score", labels=labels,
                help="fraction of evaluated windows meeting the QoS contract",
            ).set(self.overall_score)
            m.counter(
                "qos_conformance_windows_total",
                labels={**labels, "verdict": "violate" if breaches else "conform"},
                help="audited sliding windows by conformance verdict",
            ).inc()

    def _evaluate(self, w: _Window, end: float) -> int:
        c = self.contract
        breaches = 0
        active = w.active or self._prev_backlogged

        if (
            active
            and c.avg_throughput_bps > 0
            and self._first_idx is not None
            and w.idx >= self._first_idx + self.warmup_windows
        ):
            measured = w.delivered_bytes * 8.0 / self.window
            bound = c.avg_throughput_bps
            self.checked["throughput"] = self.checked.get("throughput", 0) + 1
            if measured < bound * (1.0 - self.throughput_slack) - _EPS:
                breaches += self._violate(
                    "throughput", measured, bound, end, w.idx,
                    f"delivered {measured:.0f}bps of {bound:.0f}bps",
                )

        if c.max_latency is not None and w.delivered_msgs:
            self.checked["delay"] = self.checked.get("delay", 0) + 1
            if w.lat_max > c.max_latency + _EPS:
                breaches += self._violate(
                    "delay", w.lat_max, c.max_latency, end, w.idx,
                    f"worst delivery {w.lat_max:.6f}s",
                )

        if c.max_jitter is not None and w.delivered_msgs >= 2:
            jit = w.jitter()
            self.checked["jitter"] = self.checked.get("jitter", 0) + 1
            if jit > c.max_jitter + _EPS:
                breaches += self._violate(
                    "jitter", jit, c.max_jitter, end, w.idx,
                    f"stddev over {w.delivered_msgs} deliveries",
                )

        if w.lost_pdus or w.data_pdus:
            frac = w.lost_pdus / float(w.lost_pdus + w.data_pdus)
            self.checked["loss"] = self.checked.get("loss", 0) + 1
            if frac > c.loss_tolerance + _EPS:
                breaches += self._violate(
                    "loss", frac, c.loss_tolerance, end, w.idx,
                    f"{w.lost_pdus} of {w.lost_pdus + w.data_pdus} DATA PDUs",
                )

        if c.ordered and w.delivered_msgs:
            self.checked["ordering"] = self.checked.get("ordering", 0) + 1
            if w.reorders > 0:
                breaches += self._violate(
                    "ordering", float(w.reorders), 0.0, end, w.idx,
                    f"{w.reorders} out-of-order deliveries",
                )
        return breaches

    def _sender_backlogged(self) -> bool:
        s = self.sender
        if s is None or s.closed:
            return False
        return bool(s.state.outstanding) or bool(s._send_queue)

    def _violate(
        self, kind: str, measured: float, bound: float,
        end: float, idx: int, detail: str,
    ) -> int:
        self.violated[kind] = self.violated.get(kind, 0) + 1
        v = QoSViolation(
            time=end, connection=self.ref, kind=kind,
            measured=measured, bound=bound, window_index=idx, detail=detail,
        )
        if len(self.violations) < self.MAX_VIOLATIONS:
            self.violations.append(v)
        else:
            self.violations_dropped += 1
        self.recorder.note(
            "violation", end, dimension=kind, measured=measured, bound=bound,
            window=idx, detail=detail,
        )
        _TELEMETRY.instant(
            "qos:violation", "audit",
            conn=self.ref, kind=kind, measured=measured, bound=bound,
        )
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "qos_conformance_violations_total",
                labels={"conn": self.ref, "kind": kind},
                help="QoS contract breaches by dimension",
            ).inc()
        if self.plane is not None:
            self.plane.on_violation(self, v)
        return 1

    def _on_teardown(self, now: float, reason: str) -> None:
        self._roll(now)
        self.finalize()
        if self.teardown is None:
            self.teardown = reason
        self.recorder.note("teardown", now, reason=reason)
        if self.plane is not None:
            self.plane.request_dump(
                self, "abnormal-teardown", {"time": now, "reason": reason}
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def overall_score(self) -> float:
        if not self.evaluated_windows:
            return 1.0
        return 1.0 - self.violating_windows / float(self.evaluated_windows)

    def scorecard(self) -> Dict[str, Any]:
        dims: Dict[str, Any] = {}
        for kind in KINDS:
            n = self.checked.get(kind, 0)
            if not n:
                continue
            bad = self.violated.get(kind, 0)
            dims[kind] = {
                "windows": n,
                "violations": bad,
                "score": round(1.0 - bad / float(n), 6),
            }
        return {
            "connection": self.ref,
            "contract": self.contract.to_dict(),
            "window_s": self.window,
            "windows_closed": self.closed_windows,
            "windows_evaluated": self.evaluated_windows,
            "violations": len(self.violations) + self.violations_dropped,
            "overall_score": round(self.overall_score, 6),
            "dimensions": dims,
            "last_window": dict(self._last_summary),
            "teardown": self.teardown,
        }

    def blackbox(self, trigger: str, info: Dict[str, Any]) -> Dict[str, Any]:
        """A self-contained black-box dump (JSON-serializable)."""
        dump: Dict[str, Any] = {
            "version": 1,
            "kind": "flight-recorder-dump",
            "trigger": {"kind": trigger, **info},
            "connection": self.ref,
            "contract": self.contract.to_dict(),
            "scorecard": self.scorecard(),
            "violations": [v.to_dict() for v in self.violations[-64:]],
            "adaptation": list(self.decisions),
            "records": self.recorder.snapshot(),
        }
        conn = self.conn
        if conn is not None:
            scs = getattr(conn, "scs", None)
            cfg = getattr(scs, "config", None)
            if cfg is not None and hasattr(cfg, "to_dict"):
                dump["config"] = cfg.to_dict()
            ctrl = getattr(conn, "adaptation", None)
            if ctrl is not None and not self.decisions:
                dump["adaptation"] = [
                    {"time": t, "action": a, "detail": d}
                    for (t, a, d) in getattr(ctrl, "events", [])
                ]
        return dump


class AuditPlane:
    """Process-global registry of auditors, mirror of :data:`TELEMETRY`.

    Disabled by default; the lifecycle/protocol hooks guard on
    ``AUDIT.enabled`` (one attribute test).  ``enable()`` sets the
    measurement defaults every subsequently-attached auditor inherits.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.auditors: Dict[str, QoSAuditor] = {}
        self.dumps: List[Dict[str, Any]] = []
        self.dump_paths: List[str] = []
        self.dump_dir: Optional[str] = None
        self.window = 0.25
        self.warmup_windows = 1
        self.loss_grace = 2.0
        self.throughput_slack = 0.05
        self.flight_capacity = 256
        self.max_dumps = 64
        self._pending_peer: Dict[Tuple[str, str, int], QoSAuditor] = {}
        self._dump_seq = 0

    # ------------------------------------------------------------------
    def enable(
        self,
        window: Optional[float] = None,
        warmup_windows: Optional[int] = None,
        loss_grace: Optional[float] = None,
        throughput_slack: Optional[float] = None,
        flight_capacity: Optional[int] = None,
        dump_dir: Optional[str] = None,
    ) -> "AuditPlane":
        if window is not None:
            self.window = float(window)
        if warmup_windows is not None:
            self.warmup_windows = int(warmup_windows)
        if loss_grace is not None:
            self.loss_grace = float(loss_grace)
        if throughput_slack is not None:
            self.throughput_slack = float(throughput_slack)
        if flight_capacity is not None:
            self.flight_capacity = int(flight_capacity)
        if dump_dir is not None:
            self.dump_dir = dump_dir
        self.enabled = True
        return self

    def disable(self) -> "AuditPlane":
        self.enabled = False
        for auditor in self.auditors.values():
            auditor.enabled = False
        return self

    def reset(self) -> "AuditPlane":
        """Drop all auditors, pending matches, and collected dumps."""
        for auditor in self.auditors.values():
            auditor.enabled = False
            for session in (auditor.sender, auditor.receiver):
                if session is None:
                    continue
                for cb in (auditor._on_sender_event, auditor._on_receiver_event):
                    if cb in session.observers:
                        session.observers.remove(cb)
        self.auditors.clear()
        self._pending_peer.clear()
        self.dumps.clear()
        self.dump_paths.clear()
        self.dump_dir = None
        self._dump_seq = 0
        return self

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def _new_auditor(self, contract: QoSContract) -> QoSAuditor:
        return QoSAuditor(
            contract,
            window=self.window,
            warmup_windows=self.warmup_windows,
            loss_grace=self.loss_grace,
            throughput_slack=self.throughput_slack,
            recorder=FlightRecorder(self.flight_capacity),
            plane=self,
        )

    def attach_connection(self, conn) -> Optional[QoSAuditor]:
        """Capture the contract of a MANTTS connection at instantiation.

        Called from ``ConnectionLifecycle.instantiate`` (guarded by
        ``AUDIT.enabled``).  The initiator session is observed for the
        send side; a pending peer-watch keyed by the demux tuple picks up
        the responder session for the delivery side when it appears.
        """
        if not self.enabled or conn.ref in self.auditors:
            return None
        session = conn.session
        if session is None:
            return None
        q = conn.acd.quantitative
        ql = conn.acd.qualitative
        contract = QoSContract(
            connection=conn.ref,
            avg_throughput_bps=q.avg_throughput_bps,
            peak_throughput_bps=q.peak_bps,
            max_latency=q.max_latency,
            max_jitter=q.max_jitter,
            loss_tolerance=q.loss_tolerance,
            ordered=ql.ordered,
            captured_at=session.sim.now,
        )
        auditor = self._new_auditor(contract)
        auditor.conn = conn
        self.auditors[conn.ref] = auditor
        auditor.attach_sender(session)
        if not conn.group:
            # the responder session will demux in with this exact tuple
            key = (session.remote_host, session.host.name, session.local_port)
            self._pending_peer[key] = auditor
        monitor = getattr(conn, "monitor", None)
        if monitor is not None:
            monitor.on_sample.append(auditor.on_network_sample)
        auditor.recorder.note(
            "contract", contract.captured_at,
            connection=conn.ref, contract=contract.describe(),
        )
        _TELEMETRY.instant(
            "qos:contract-captured", "audit",
            conn=conn.ref, contract=contract.describe(),
        )
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "qos_conformance_audited_total",
                help="connections whose QoS contract is under audit",
            ).inc()
        return auditor

    def attach_session(
        self, session, contract: QoSContract, watch_peer: bool = True
    ) -> QoSAuditor:
        """Audit a raw TKO session against an explicit contract (tests,
        benchmarks, worlds assembled without MANTTS)."""
        auditor = self._new_auditor(contract)
        self.auditors[contract.connection] = auditor
        auditor.attach_sender(session)
        if watch_peer:
            key = (session.remote_host, session.host.name, session.local_port)
            self._pending_peer[key] = auditor
        return auditor

    def session_created(self, session) -> None:
        """Protocol hook: match a newly-demuxed session to a peer watch."""
        if not self._pending_peer:
            return
        key = (session.host.name, session.remote_host, session.remote_port)
        auditor = self._pending_peer.pop(key, None)
        if auditor is not None:
            auditor.attach_receiver(session)

    # ------------------------------------------------------------------
    # cross-links from the adaptation ladder and the lifecycle
    # ------------------------------------------------------------------
    def note_adaptation(self, ref: str, decision: Dict[str, Any]) -> None:
        auditor = self.auditors.get(ref)
        if auditor is None:
            return
        auditor.note_adaptation(decision)
        if decision.get("action") == "degrade":
            self.request_dump(auditor, "degradation", dict(decision))

    def note_teardown(self, ref: str, reason: str) -> None:
        auditor = self.auditors.get(ref)
        if auditor is None:
            return
        auditor._on_teardown(auditor._now(), reason)

    # ------------------------------------------------------------------
    # black-box dumps
    # ------------------------------------------------------------------
    def on_violation(self, auditor: QoSAuditor, violation: QoSViolation) -> None:
        self.request_dump(
            auditor, "violation",
            {"time": violation.time, "violation": violation.to_dict()},
        )

    def request_dump(
        self, auditor: QoSAuditor, trigger: str, info: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """At most one dump per trigger kind per connection (no dump storms)."""
        if trigger in auditor._dumped:
            return None
        auditor._dumped.add(trigger)
        dump = auditor.blackbox(trigger, info)
        if self.dump_dir is not None:
            import json
            import os

            self._dump_seq += 1
            name = f"flight-{auditor.ref}-{trigger}-{self._dump_seq}.json"
            path = os.path.join(self.dump_dir, name)
            with open(path, "w") as fh:
                json.dump(dump, fh, indent=1, default=str)
            if len(self.dump_paths) < self.max_dumps:
                self.dump_paths.append(path)
        elif len(self.dumps) < self.max_dumps:
            self.dumps.append(dump)
        return dump

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def scorecards(self) -> Dict[str, Dict[str, Any]]:
        return {ref: a.scorecard() for ref, a in self.auditors.items()}

    def finalize(self) -> "AuditPlane":
        """Close every auditor's partial window (end-of-run reports)."""
        for auditor in self.auditors.values():
            auditor.finalize()
        return self

    def __len__(self) -> int:
        return len(self.auditors)


#: the process-global audit plane every hook guards on
AUDIT = AuditPlane()
