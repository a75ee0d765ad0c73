"""The MANTTS run-time adaptation loop (§4.1.2, closed).

The monitor samples, the policies fire rules, but until now nothing
*owned* the response to sustained trouble: route failover, degradation
that one parameter tweak cannot fix, or the destination vanishing
entirely.  The :class:`AdaptationController` closes that loop for one
live connection, subscribing to :class:`~repro.mantts.monitor.NetworkMonitor`
snapshots and driving a five-level policy ladder:

====== =============== =====================================================
level  name            response
====== =============== =====================================================
0      normal          watch
1      retuned         parameter retune (pacing rate / window clamp)
2      segued          mechanism swap via ``segue`` (GBN→SR; FEC on BER storm)
3      renegotiated    mid-stream renegotiation at reduced QoS
                       (pause → drain → re-admit → swap → resume)
4      degraded        graceful QoS downgrade + ``on_degraded`` app callback
====== =============== =====================================================

Escalation requires ``degrade_after`` *consecutive* degraded samples and
de-escalation ``restore_after`` healthy ones (hysteresis — §3(C)'s thrash
guard); a route change acts immediately (window/RTO re-derivation for the
new path's bandwidth-delay product, the paper's terrestrial→satellite
example).  A path that stays unreachable is retried a bounded number of
times with doubling backoff before the session is torn down.

Every decision is recorded in ``controller.events`` (deterministic, used
by tests) and emitted as UNITES ``adapt:*`` instants/metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.mantts.monitor import NetworkState
from repro.tko.ends import ADAPTATION_TEARDOWN
from repro.unites.obs.audit import AUDIT as _AUDIT
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.mantts.api import AdaptiveConnection

#: the ladder's level names, index == level
LEVELS = ("normal", "retuned", "segued", "renegotiated", "degraded")

#: transmission schemes whose window should track the path's BDP
_WINDOWED = ("stop-and-wait", "sliding-window", "window-rate", "tcp-aimd")


@dataclass(frozen=True)
class AdaptationDecision:
    """One ladder decision with the evidence that produced it.

    ``controller.events`` keeps the historical ``(time, action, detail)``
    tuples untouched; this richer record adds *why* — the triggering
    monitor sample, the exact thresholds it crossed, the rung the ladder
    stood on, and the outcome — so a flight-recorder dump can show the
    full cause→ladder→effect chain next to the QoS violations it
    responded to.
    """

    time: float
    action: str
    detail: str
    level: int
    rung: str
    outcome: str = ""
    #: summary of the sample that triggered the decision (None for
    #: decisions not driven by a sample, e.g. manual teardown)
    trigger: Optional[Dict[str, Any]] = None
    #: ``(threshold-name, measured, bound)`` per crossed threshold
    thresholds: Tuple[Tuple[str, float, float], ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["thresholds"] = [list(t) for t in self.thresholds]
        return d


def _sample_summary(state: Optional[NetworkState]) -> Optional[Dict[str, Any]]:
    if state is None:
        return None
    return {
        "rtt": state.rtt,
        "base_rtt": state.base_rtt,
        "congestion": state.congestion,
        "loss_rate": state.loss_rate,
        "ber": state.ber,
        "bottleneck_bps": state.bottleneck_bps,
        "reachable": state.reachable,
        "path": "->".join(state.path) if state.path else "",
    }


class AdaptationController:
    """Per-connection run-time adaptation: monitor in, ladder out."""

    def __init__(
        self,
        conn: "AdaptiveConnection",
        degrade_after: int = 3,
        restore_after: int = 8,
        congestion_threshold: float = 0.6,
        loss_threshold: float = 0.05,
        ber_threshold: float = 1e-5,
        rtt_factor: float = 2.5,
        bandwidth_floor: float = 0.5,
        unreachable_after: int = 3,
        max_teardown_retries: int = 3,
        on_degraded: Optional[Callable[["AdaptiveConnection", NetworkState], None]] = None,
        on_restored: Optional[Callable[["AdaptiveConnection", NetworkState], None]] = None,
    ) -> None:
        if degrade_after < 1 or restore_after < 1 or unreachable_after < 1:
            raise ValueError("hysteresis thresholds must be >= 1 samples")
        self.conn = conn
        self.degrade_after = degrade_after
        self.restore_after = restore_after
        self.congestion_threshold = congestion_threshold
        self.loss_threshold = loss_threshold
        self.ber_threshold = ber_threshold
        self.rtt_factor = rtt_factor
        self.bandwidth_floor = bandwidth_floor
        self.unreachable_after = unreachable_after
        self.max_teardown_retries = max_teardown_retries
        self.on_degraded = on_degraded
        self.on_restored = on_restored

        self.level = 0
        #: ordered decision log: (sim_time, action, detail) — deterministic
        self.events: List[Tuple[float, str, str]] = []
        #: structured decision-audit trail (trigger sample, thresholds
        #: crossed, rung, outcome) — what flight dumps cross-link
        self.decisions: List[AdaptationDecision] = []
        self.teardown_retries = 0
        self._baseline: Optional[NetworkState] = None
        self._last_path: Optional[Tuple[str, ...]] = None
        self._degraded_run = 0
        self._healthy_run = 0
        self._unreachable_run = 0
        self._giveup_at = unreachable_after
        self._degraded_flagged = False
        self._reneg_pending = False
        if conn.monitor is not None:
            conn.monitor.on_sample.append(self.on_sample)
        manager = getattr(conn.mantts, "manager", None)
        if manager is not None:
            manager.register_controller(self)

    # ------------------------------------------------------------------
    @property
    def level_name(self) -> str:
        return LEVELS[self.level]

    def _record(
        self,
        action: str,
        detail: str,
        state: Optional[NetworkState] = None,
        outcome: str = "",
    ) -> None:
        now = self.conn.now
        self.events.append((now, action, detail))
        decision = AdaptationDecision(
            time=now,
            action=action,
            detail=detail,
            level=self.level,
            rung=LEVELS[self.level],
            outcome=outcome,
            trigger=_sample_summary(state),
            thresholds=self._crossed(state),
        )
        self.decisions.append(decision)
        _TELEMETRY.instant(
            f"adapt:{action}", "adaptation",
            conn=self.conn.ref, level=LEVELS[self.level], detail=detail,
        )
        if _TELEMETRY.enabled:
            _TELEMETRY.metrics.counter(
                "adaptation_actions_total", labels={"action": action},
                help="adaptation-ladder decisions by kind").inc()
        if _AUDIT.enabled:
            _AUDIT.note_adaptation(self.conn.ref, decision.to_dict())

    def _crossed(
        self, state: Optional[NetworkState]
    ) -> Tuple[Tuple[str, float, float], ...]:
        """Which degradation thresholds the sample crossed (evidence for
        the decision trail; mirrors :meth:`_is_degraded`'s conditions)."""
        if state is None:
            return ()
        out: List[Tuple[str, float, float]] = []
        if not state.reachable:
            out.append(("reachable", 0.0, 1.0))
            return tuple(out)
        base = self._baseline
        if state.congestion > self.congestion_threshold:
            out.append(("congestion", state.congestion, self.congestion_threshold))
        if state.loss_rate > self.loss_threshold:
            out.append(("loss_rate", state.loss_rate, self.loss_threshold))
        ber_bound = max(self.ber_threshold, (base.ber * 10.0) if base else 0.0)
        if state.ber > ber_bound:
            out.append(("ber", state.ber, ber_bound))
        if (
            state.base_rtt > 0
            and state.base_rtt != float("inf")
            and state.rtt > self.rtt_factor * state.base_rtt
        ):
            out.append(("rtt", state.rtt, self.rtt_factor * state.base_rtt))
        if (
            base is not None
            and base.bottleneck_bps > 0
            and state.bottleneck_bps < self.bandwidth_floor * base.bottleneck_bps
        ):
            out.append((
                "bandwidth", state.bottleneck_bps,
                self.bandwidth_floor * base.bottleneck_bps,
            ))
        return tuple(out)

    # ------------------------------------------------------------------
    # the monitor callback — one decision per sample
    # ------------------------------------------------------------------
    def on_sample(self, state: NetworkState) -> None:
        c = self.conn
        if c.lifecycle.failed or c.session is None or c.session.closed:
            return
        if not state.reachable:
            self._on_unreachable(state)
            return
        # a reachable sample resets the give-up ladder
        self._unreachable_run = 0
        self.teardown_retries = 0
        self._giveup_at = self.unreachable_after

        if self._baseline is None:
            self._baseline = state
            self._last_path = state.path
            return
        if state.path and self._last_path and state.path != self._last_path:
            self._on_failover(state)
            self._last_path = state.path
            self._baseline = state  # the new route is the new normal
            return
        self._last_path = state.path

        if self._is_degraded(state):
            self._healthy_run = 0
            self._degraded_run += 1
            if self._degraded_run >= self.degrade_after and not self._reneg_pending:
                self._degraded_run = 0
                self._escalate(state)
        else:
            self._degraded_run = 0
            self._healthy_run += 1
            if self.level > 0 and self._healthy_run >= self.restore_after:
                self._healthy_run = 0
                self._deescalate(state)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _is_degraded(self, state: NetworkState) -> bool:
        base = self._baseline
        assert base is not None
        if state.congestion > self.congestion_threshold:
            return True
        if state.loss_rate > self.loss_threshold:
            return True
        if state.ber > max(self.ber_threshold, base.ber * 10.0):
            return True
        if (
            state.base_rtt > 0
            and state.base_rtt != float("inf")
            and state.rtt > self.rtt_factor * state.base_rtt
        ):
            return True
        if (
            base.bottleneck_bps > 0
            and state.bottleneck_bps < self.bandwidth_floor * base.bottleneck_bps
        ):
            return True
        return False

    # ------------------------------------------------------------------
    # immediate response: route failover
    # ------------------------------------------------------------------
    def _bdp_window(self, state: NetworkState) -> int:
        """Window sized to the path's *unloaded* bandwidth-delay product,
        capped at the bottleneck queue capacity.

        The loaded RTT folds in queueing delay — sizing to it (or adding
        headroom) asks for more PDUs in flight than the path holds, and the
        excess lands in switch queues as self-induced congestion the ladder
        would then fight.  base_rtt is the propagation+serialization floor.

        The queue cap exists because windowed senders here burst: opening a
        window of W releases W PDUs back-to-back into the first bottleneck
        queue, so any W beyond the queue's depth is drop-tail loss by
        construction — and on a long-RTT path that loss converts straight
        into RTO stalls and retransmission storms.
        """
        cfg = self.conn.cfg
        seg = cfg.segment_size or 1024
        rtt = state.base_rtt if state.base_rtt != float("inf") else state.rtt
        if rtt == float("inf"):
            return cfg.window
        bdp = state.bottleneck_bps * rtt / (8 * seg)
        if state.queue_limit > 0:
            bdp = min(bdp, state.queue_limit)
        return int(min(256, max(4, bdp)))

    def _on_failover(self, state: NetworkState) -> None:
        """Re-derive window and RTO for the new route's characteristics.

        The paper's worked failover: a terrestrial→satellite route change
        leaves the old window far below (or above) the new bandwidth-delay
        product and the old RTO mid-spurious; both are recomputed from the
        fresh snapshot.  Loss during the outage is the recovery mechanism's
        job — the controller only retargets the parameters.
        """
        c = self.conn
        cfg = c.cfg
        overrides: dict = {}
        if cfg.transmission in _WINDOWED:
            overrides["window"] = self._bdp_window(state)
        rtt = state.rtt if state.rtt != float("inf") else 0.5
        rto = max(cfg.rto_min, min(4.0, 2.0 * rtt))
        overrides["rto_initial"] = rto
        c.apply_overrides(overrides, reason="failover")
        sess = c.session
        if sess is not None and not sess.closed:
            # the live timer must follow: the old path's smoothed RTT would
            # fire spurious timeouts (and burn per-PDU retry budget) until
            # backoff caught up with the new path — re-seed it and forgive
            # retries accumulated during the outage
            sess.rtt.reseed(rto)
            for entry in sess.state.outstanding.values():
                entry.retries = 0
        self._record("failover", "->".join(state.path), state=state,
                     outcome="rederived")

    # ------------------------------------------------------------------
    # the ladder
    # ------------------------------------------------------------------
    def _escalate(self, state: NetworkState) -> None:
        if self.level >= 4:
            return
        self.level += 1
        if self.level == 1:
            self._retune(state)
        elif self.level == 2:
            self._segue(state)
        elif self.level == 3:
            self._renegotiate(state)
        else:
            self._degrade(state)

    def _deescalate(self, state: NetworkState) -> None:
        """Sustained health: return to watch level.

        Mechanism swaps are deliberately left in place (switching back is
        its own policy decision, cf. the GBN↔SR restore rule); only the
        level and the application-visible degradation flag are reset.
        """
        if self._degraded_flagged:
            self._degraded_flagged = False
            manager = getattr(self.conn.mantts, "manager", None)
            if manager is not None:
                manager.note_degraded(self.conn, False)
            if self.on_restored is not None:
                self.on_restored(self.conn, state)
        prior = LEVELS[self.level]
        self.level = 0
        self._record("restore", f"from {prior}", state=state, outcome="normal")

    def _fair_rate(self, state: NetworkState, share: float = 0.5) -> float:
        cfg = self.conn.cfg
        seg = cfg.segment_size or 1024
        return max(1.0, state.bottleneck_bps * share / (8 * seg))

    def _retune(self, state: NetworkState) -> None:
        c = self.conn
        cfg = c.cfg
        overrides: dict = {}
        if cfg.rate_pps is not None:
            overrides["rate_pps"] = max(1.0, min(cfg.rate_pps * 0.6, self._fair_rate(state)))
        elif cfg.transmission in _WINDOWED:
            overrides["window"] = max(2, cfg.window // 2)
        applied = c.apply_overrides(overrides, reason="adapt-retune") if overrides else False
        self._record("retune", "applied" if applied else "noop", state=state,
                     outcome="applied" if applied else "noop")

    def _segue(self, state: NetworkState) -> None:
        """Mechanism swap chosen by dominant symptom.

        BER storm → forward error correction (loss is not congestion;
        retransmitting into a lossy channel wastes the round trips).
        Otherwise congestion/loss with GBN → selective repeat (stop
        resending what arrived).
        """
        c = self.conn
        cfg = c.cfg
        base = self._baseline
        overrides: dict = {}
        detail = "noop"
        ber_storm = state.ber > max(
            self.ber_threshold, (base.ber if base else 0.0) * 10.0
        )
        if ber_storm and cfg.recovery in ("gbn", "sr"):
            overrides = {
                "recovery": "fec-rs",
                "ack": "none",
                "transmission": "rate",
                "rate_pps": cfg.rate_pps or self._fair_rate(state),
            }
            detail = f"{cfg.recovery}->fec-rs"
        elif cfg.recovery == "gbn":
            overrides = {"recovery": "sr", "ack": "selective"}
            detail = "gbn->sr"
        if overrides:
            c.apply_overrides(overrides, reason=f"adapt-segue:{detail}")
        self._record("segue", detail, state=state, outcome=detail)

    def _renegotiate(self, state: NetworkState) -> None:
        c = self.conn
        cfg = c.cfg
        overrides: dict = {"window": min(cfg.window, self._bdp_window(state))}
        if cfg.rate_pps is not None:
            overrides["rate_pps"] = max(1.0, min(cfg.rate_pps, self._fair_rate(state)))
        try:
            new_cfg = cfg.with_(**overrides)
        except (ValueError, TypeError):
            new_cfg = cfg
        target_bps = max(8_000.0, state.bottleneck_bps * 0.5)
        self._reneg_pending = True
        self._record("renegotiate", f"target={target_bps:.0f}bps", state=state,
                     outcome="started")

        def done(ok: bool) -> None:
            self._reneg_pending = False
            self._record("renegotiate-done", "accept" if ok else "failed",
                         outcome="accept" if ok else "failed")

        started = c.lifecycle.renegotiate_midstream(
            new_cfg, throughput_bps=target_bps, on_done=done
        )
        if not started:
            self._reneg_pending = False

    def _degrade(self, state: NetworkState) -> None:
        c = self.conn
        cfg = c.cfg
        overrides: dict = {}
        if cfg.rate_pps is not None:
            overrides["rate_pps"] = max(1.0, cfg.rate_pps * 0.5)
        elif cfg.transmission in _WINDOWED:
            overrides["window"] = max(1, cfg.window // 2)
        if overrides:
            c.apply_overrides(overrides, reason="adapt-degrade")
        if not self._degraded_flagged:
            self._degraded_flagged = True
            manager = getattr(c.mantts, "manager", None)
            if manager is not None:
                manager.note_degraded(c, True)
            if self.on_degraded is not None:
                self.on_degraded(c, state)
        self._record("degrade", str(sorted(overrides)) if overrides else "flag-only",
                     state=state,
                     outcome="overrides" if overrides else "flag-only")

    # ------------------------------------------------------------------
    # unreachability: bounded retries with backoff, then teardown
    # ------------------------------------------------------------------
    def _on_unreachable(self, state: NetworkState) -> None:
        self._degraded_run = 0
        self._healthy_run = 0
        self._unreachable_run += 1
        if self._unreachable_run < self._giveup_at:
            return
        self.teardown_retries += 1
        if self.teardown_retries > self.max_teardown_retries:
            self._record("teardown", f"after {self.max_teardown_retries} retries",
                         state=state, outcome="abort")
            sess = self.conn.session
            if sess is not None and not sess.closed:
                sess.abort(f"{ADAPTATION_TEARDOWN}: destination unreachable")
            return
        # wait exponentially longer (in monitor periods) before the next
        # escalation — the bounded-retry backoff
        self._giveup_at += self.unreachable_after * (2 ** self.teardown_retries)
        self._record("retry", f"attempt {self.teardown_retries}", state=state,
                     outcome="backoff")
