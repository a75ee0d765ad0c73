"""Canned experiment scenarios.

``PointToPointScenario`` is the workhorse: two ADAPTIVE hosts separated by
a configurable path (profile, switch count, background congestion), one
workload from :mod:`repro.apps`, driven either through a raw
:class:`~repro.tko.config.SessionConfig` (direct TKO, used when comparing
mechanism choices) or through a full ACD via MANTTS (used when the
three-stage transformation itself is under test).  ``collect()`` returns
the metric dictionary every benchmark table is built from.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.rpc import EchoResponder, RequestResponseClient
from repro.apps.workloads import DeliveryTracker, make_source
from repro.core.system import AdaptiveSystem
from repro.host.cpu import CpuCosts
from repro.mantts.acd import ACD
from repro.netsim.profiles import NetworkProfile, ethernet_10, linear_path
from repro.netsim.traffic import BackgroundLoad
from repro.tko.config import SessionConfig
from repro.tko.ends import failed_open

SERVICE_PORT = 7000


class PointToPointScenario:
    """A two-host experiment over one path."""

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        acd: Optional[ACD] = None,
        workload: str = "bulk",
        workload_kw: Optional[Dict[str, Any]] = None,
        profile: Optional[NetworkProfile] = None,
        n_switches: int = 2,
        duration: float = 10.0,
        seed: int = 0,
        mips: float = 25.0,
        cores: int = 1,
        costs: Optional[CpuCosts] = None,
        bg_bps: float = 0.0,
        bg_start: float = 0.0,
        deadline: Optional[float] = None,
        binding: str = "dynamic",
        default_policies: bool = False,
    ) -> None:
        if (config is None) == (acd is None):
            raise ValueError("provide exactly one of config= or acd=")
        self.duration = duration
        self.system = AdaptiveSystem(seed=seed)
        prof = profile if profile is not None else ethernet_10()
        self.network = linear_path(
            self.system.sim, prof, ("A", "B"), n_switches=n_switches, rng=self.system.rng
        )
        self.system.attach_network(self.network)
        self.a = self.system.node("A", mips=mips, costs=costs, cores=cores)
        self.b = self.system.node("B", mips=mips, costs=costs, cores=cores)
        self.tracker = DeliveryTracker(deadline=deadline).bind_clock(self.system.sim)
        self.responder: Optional[EchoResponder] = None
        self.sender_session = None
        self.connection = None
        self.failed: Optional[str] = None

        is_rpc = workload == "rpc"
        if is_rpc:
            self.responder = EchoResponder(
                response_bytes=(workload_kw or {}).pop("response_bytes", 512)
                if workload_kw
                else 512
            )
            self.b.mantts.register_service(SERVICE_PORT, on_session=self.responder.attach)
        else:
            self.b.mantts.register_service(SERVICE_PORT, on_deliver=self.tracker.on_deliver)

        rng = self.system.rng.stream("workload")
        if config is not None:
            self.sender_session = self.a.protocol.create_session(
                config,
                "B",
                SERVICE_PORT,
                on_ended=self._on_session_ended,
            )
            self.sender_session.connect()
            sender = self.sender_session
        else:
            self.connection = self.a.mantts.open(
                acd,
                on_failed=self._on_failed,
                binding=binding,
                default_policies=default_policies,
            )
            sender = self.connection
        self.source = make_source(
            workload, self.system.sim, sender, rng=rng, **(workload_kw or {})
        )
        if is_rpc:
            # client-side responses come back on the sender session
            if self.sender_session is not None:
                self.sender_session.on_deliver = self.source.on_deliver
            else:
                self.connection.on_deliver = self.source.on_deliver

        self.bg: Optional[BackgroundLoad] = None
        if bg_bps > 0:
            self.bg = BackgroundLoad(self.network, "s1", f"s{n_switches}", bg_bps)
            self.bg.start(bg_start)
        self.source.start(0.05)

    # ------------------------------------------------------------------
    def _on_failed(self, reason: str) -> None:
        self.failed = reason

    def _on_session_ended(self, reason: str) -> None:
        if failed_open(reason, self.sender_session.stats.established_at is not None):
            self.failed = reason

    @property
    def session(self):
        """The sender-side TKO session (whichever mode built it)."""
        if self.sender_session is not None:
            return self.sender_session
        return self.connection.session if self.connection is not None else None

    def run(self, until: Optional[float] = None) -> "PointToPointScenario":
        self.system.run(until=until if until is not None else self.duration)
        return self

    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, Optional[float]]:
        """The standard metric dictionary (None-safe on failed setups)."""
        s = self.session
        stats = s.stats if s is not None else None
        elapsed = max(1e-9, self.system.now - 0.05)
        drops = sum(l.stats.dropped_overflow for l in self.network.links.values())
        corrupted = sum(l.stats.corrupted for l in self.network.links.values())
        out: Dict[str, Optional[float]] = {
            "msgs_sent": float(self.source.messages_sent),
            "msgs_delivered": float(self.tracker.count),
            # delivery-interval goodput when observable, else run-average
            "goodput_bps": self.tracker.goodput_bps()
            or self.tracker.bytes * 8.0 / elapsed,
            "mean_latency": self.tracker.mean_latency if self.tracker.count else None,
            "p95_latency": self.tracker.p95_latency if self.tracker.count else None,
            "jitter": self.tracker.jitter if self.tracker.count else None,
            "deadline_miss_rate": self.tracker.deadline_miss_rate()
            if self.tracker.deadline is not None
            else None,
            "loss_rate": (
                1.0 - self.tracker.count / self.source.messages_sent
                if self.source.messages_sent
                else None
            ),
            "link_drops": float(drops),
            "link_corrupted": float(corrupted),
            "cpu_a": self.a.host.cpu.utilization(elapsed),
            "cpu_b": self.b.host.cpu.utilization(elapsed),
        }
        if stats is not None:
            out.update(
                {
                    "pdus_sent": float(stats.pdus_sent),
                    "retransmissions": float(stats.retransmissions),
                    "wire_bytes": float(stats.wire_bytes_sent),
                    "setup_time": stats.connection_setup_time,
                    "reconfigurations": float(stats.reconfigurations),
                }
            )
        if isinstance(self.source, RequestResponseClient):
            out["rpc_completed"] = float(self.source.completed)
            out["rpc_mean_response"] = self.source.mean_response_time or None
            out["rpc_timeouts"] = float(self.source.timeouts)
        return out


def run_point_to_point(**kwargs) -> Dict[str, Optional[float]]:
    """One-shot helper: build, run, collect."""
    duration = kwargs.get("duration", 10.0)
    scenario = PointToPointScenario(**kwargs)
    scenario.run(duration)
    return scenario.collect()
