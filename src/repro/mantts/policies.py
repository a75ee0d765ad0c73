"""Reconfiguration policies: the *when* and *what* of adaptation.

The paper's central claim (§3(C)) is that related work supplies
*mechanisms* (how to switch) but not *policies* (when to switch, and to
what).  This module is the policy half: TSA <condition, action> rules
(Table 2) evaluated against the monitored network state and session
statistics, with edge-triggering and hysteresis so a noisy metric doesn't
cause reconfiguration thrash.

The built-in rule builders encode the paper's two worked examples:

* :func:`congestion_switch_gbn_to_sr` — "switch a session's retransmission
  mechanism from go-back-n to selective repeat ... [when] congestion in
  the network increases beyond a specified threshold", and restore GBN
  "when congestion subsides, thereby reducing buffering requirements";
* :func:`rtt_switch_to_fec` — "switch from retransmission-based to
  forward error correction-based when the round-trip delay increases
  beyond some threshold (e.g., when a route switches from a terrestrial
  link to a satellite link)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from repro.mantts.acd import TSARule
from repro.mantts.monitor import NetworkState

if TYPE_CHECKING:  # pragma: no cover
    from repro.mantts.api import AdaptiveConnection

#: override values may be constants or callables(cfg, state) -> value
OverrideValue = Union[object, Callable]

# re-exported for convenience in ACDs
Condition = Tuple[str, str, float]
Action = str


@dataclass(slots=True)
class _RuleState:
    rule: TSARule
    was_true: bool = False
    last_fired: float = -1e18


class PolicyEngine:
    """Evaluates TSA rules for one adaptive connection."""

    #: minimum interval between firings of the same rule, seconds
    REFIRE_GUARD = 1.0

    __slots__ = ("connection", "_rules", "firings")

    def __init__(self, connection: "AdaptiveConnection") -> None:
        self.connection = connection
        self._rules: List[_RuleState] = []
        self.firings: List[Tuple[float, str, str]] = []

    def add_rule(self, rule: TSARule) -> None:
        self._rules.append(_RuleState(rule))
        # a lazily-armed monitor (repro.host.connmgr) only ticks while
        # someone consumes samples; a new rule is a new consumer
        monitor = getattr(self.connection, "monitor", None)
        poke = getattr(monitor, "poke", None)
        if poke is not None:
            poke()

    def add_rules(self, rules) -> None:
        for r in rules:
            self.add_rule(r)

    @property
    def active(self) -> bool:
        """Whether any rule is installed (samples have observable effect)."""
        return bool(self._rules)

    # ------------------------------------------------------------------
    def metric_value(self, name: str, state: NetworkState) -> Optional[float]:
        """Resolve a rule metric against network state + session stats."""
        conn = self.connection
        stats = conn.session.stats if conn.session is not None else None
        if name == "congestion":
            return state.congestion
        if name == "rtt":
            return state.rtt
        if name == "loss_rate":
            return state.loss_rate
        if name == "bottleneck_bps":
            return state.bottleneck_bps
        if name == "ber":
            return state.ber
        if stats is not None:
            if name == "retransmission_rate":
                sent = max(1, stats.pdus_sent)
                return stats.retransmissions / sent
            if name == "jitter":
                return stats.jitter
            if name == "mean_latency":
                return stats.mean_latency
        if name == "buffer_fill":
            return conn.host.buffers.fill_fraction
        return None

    def evaluate(self, state: NetworkState) -> None:
        """Edge-triggered rule evaluation (called per monitor sample)."""
        now = self.connection.now
        for rs in self._rules:
            value = self.metric_value(rs.rule.metric, state)
            if value is None:
                continue
            holds = rs.rule.holds(value)
            fire = holds and not rs.was_true and (now - rs.last_fired) >= self.REFIRE_GUARD
            rs.was_true = holds
            if not fire:
                continue
            rs.last_fired = now
            self.firings.append((now, rs.rule.metric, rs.rule.action))
            self._execute(rs.rule, state)

    def _execute(self, rule: TSARule, state: NetworkState) -> None:
        conn = self.connection
        if rule.action == "adjust-scs":
            overrides = {}
            for key, value in rule.overrides:
                overrides[key] = value(conn.cfg, state) if callable(value) else value
            reason = rule.tag or f"{rule.metric}{rule.op}{rule.threshold}"
            conn.apply_overrides(overrides, reason=reason)
        elif rule.action == "adjust-tsc":
            conn.change_tsc(rule.tag, state)
        else:  # notify
            conn.notify_app(rule.tag or rule.metric, state)


# ----------------------------------------------------------------------
# built-in policy sets (the paper's worked examples)
# ----------------------------------------------------------------------
def congestion_switch_gbn_to_sr(
    high: float = 0.5, low: float = 0.15
) -> Tuple[TSARule, TSARule]:
    """GBN → SR when congestion exceeds ``high``; back when below ``low``."""
    to_sr = TSARule(
        metric="congestion",
        op=">",
        threshold=high,
        action="adjust-scs",
        overrides=(("recovery", "sr"), ("ack", "selective")),
        tag="gbn->sr",
    )
    to_gbn = TSARule(
        metric="congestion",
        op="<",
        threshold=low,
        action="adjust-scs",
        overrides=(("recovery", "gbn"), ("ack", "cumulative")),
        tag="sr->gbn",
    )
    return to_sr, to_gbn


def rtt_switch_to_fec(
    threshold: float = 0.2,
    restore_below: Optional[float] = None,
    code: str = "fec-rs",
) -> Tuple[TSARule, ...]:
    """Retransmission → FEC when RTT crosses ``threshold`` (satellite).

    The override set is *complete*: dropping the ACK stream forces the
    transmission control onto pure rate pacing (a window cannot open
    without ACKs), with the pacing rate carried over from the session's
    current configuration.
    """

    def keep_rate(cfg, state: NetworkState) -> float:
        if cfg.rate_pps:
            return cfg.rate_pps
        seg = cfg.segment_size or 1024
        # pace at the bottleneck's fair share estimate
        return max(1.0, state.bottleneck_bps * 0.5 / (8 * seg))

    to_fec = TSARule(
        metric="rtt",
        op=">",
        threshold=threshold,
        action="adjust-scs",
        overrides=(
            ("recovery", code),
            ("ack", "none"),
            ("transmission", "rate"),
            ("rate_pps", keep_rate),
        ),
        tag="retransmit->fec",
    )
    if restore_below is None:
        return (to_fec,)
    back = TSARule(
        metric="rtt",
        op="<",
        threshold=restore_below,
        action="adjust-scs",
        overrides=(
            ("recovery", "gbn"),
            ("ack", "cumulative"),
            ("transmission", "window-rate"),
        ),
        tag="fec->retransmit",
    )
    return to_fec, back


def congestion_rate_backoff(
    threshold: float = 0.6, factor: float = 0.5
) -> Tuple[TSARule]:
    """Increase the inter-PDU gap (reduce rate) under congestion — the
    paper's "adjust the SCS" example (§4.1.2)."""

    def reduced(cfg, state: NetworkState) -> float:
        current = cfg.rate_pps or 1000.0
        return max(1.0, current * factor)

    return (
        TSARule(
            metric="congestion",
            op=">",
            threshold=threshold,
            action="adjust-scs",
            overrides=(("rate_pps", reduced),),
            tag="rate-backoff",
        ),
    )


def congestion_window_rate_clamp(
    threshold: float = 0.6, restore_below: float = 0.1
) -> Tuple[TSARule, TSARule]:
    """Add rate control on top of the window under congestion; remove it
    when the path clears (reliable-elastic traffic's congestion answer)."""

    def clamped_rate(cfg, state: NetworkState) -> float:
        seg = cfg.segment_size or 1024
        # queue occupancy saturates at 1.0 under any overload, so a pure
        # (1 - congestion) share would starve the session; keep a floor
        share = max(0.25, 1.0 - state.congestion)
        return max(1.0, state.bottleneck_bps * share * 0.8 / (8 * seg))

    clamp = TSARule(
        metric="congestion",
        op=">",
        threshold=threshold,
        action="adjust-scs",
        overrides=(("transmission", "window-rate"), ("rate_pps", clamped_rate)),
        tag="window->window-rate",
    )
    release = TSARule(
        metric="congestion",
        op="<",
        threshold=restore_below,
        action="adjust-scs",
        overrides=(("transmission", "sliding-window"), ("rate_pps", None)),
        tag="window-rate->window",
    )
    return clamp, release


def rtt_window_rescale(threshold: float = 0.15) -> Tuple[TSARule]:
    """Rescale the flow-control window to the new bandwidth-delay product
    when the RTT regime changes (§2.2(C): long-delay paths need "large
    flow-control windows ... window scaling factors"; E4 shows the
    starvation when nobody does this)."""

    def bdp_window(cfg, state: NetworkState) -> int:
        seg = cfg.segment_size or 1024
        bdp = state.bottleneck_bps * state.rtt / (8 * seg)
        return int(min(256, max(8, bdp * 1.5)))

    return (
        TSARule(
            metric="rtt",
            op=">",
            threshold=threshold,
            action="adjust-scs",
            overrides=(("window", bdp_window),),
            tag="window-rescale",
        ),
    )


def default_policies_for(tsc, cfg) -> Tuple[TSARule, ...]:
    """The default policy bundle a TSC "embodies" (§4.1.1).

    Installed by MANTTS when the application opts in and supplies no TSA
    rules of its own:

    * reliable elastic traffic — congestion-driven GBN↔SR switching plus
      window-rate clamping (the paper's first worked example);
    * loss-tolerant isochronous traffic using retransmission — the
      RTT-threshold switch to FEC (the second worked example) and rate
      backoff under congestion.
    """
    from repro.mantts.tsc import TSC

    rules: tuple = ()
    iso = tsc in (TSC.INTERACTIVE_ISOCHRONOUS, TSC.DISTRIBUTIONAL_ISOCHRONOUS)
    if cfg.recovery in ("gbn", "sr") and not iso:
        rules += congestion_switch_gbn_to_sr()
        rules += congestion_window_rate_clamp()
    if iso:
        rules += congestion_rate_backoff()
        if cfg.recovery in ("gbn", "sr"):
            rules += rtt_switch_to_fec(threshold=0.2)
    return rules


def buffer_pressure_notify(threshold: float = 0.85) -> Tuple[TSARule]:
    """Application-specific action: tell the app the receiver is filling
    up so it can, e.g., switch to a heavier compression scheme (§4.1.2's
    call-back example)."""
    return (
        TSARule(
            metric="buffer_fill",
            op=">",
            threshold=threshold,
            action="notify",
            tag="buffer-pressure",
        ),
    )
