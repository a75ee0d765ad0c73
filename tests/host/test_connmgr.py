"""Unit tests for the per-host connection-management layer.

TimerGroup coalescing, lazy ManagedMonitor arming (with phase
preservation), fire-scoped probe sharing, Stage II memoisation, the
connection table, and the UNITES gauge snapshot.
"""

import pytest

from repro.core.system import AdaptiveSystem
from repro.host.connmgr import ManagedMonitor, TimerGroup
from repro.mantts.acd import ACD
from repro.mantts.qos import QuantitativeQoS
from repro.mantts.tsc import APP_PROFILES
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator
from repro.tko import ends

SERVICE_PORT = 7000


def build(seed=3):
    sysm = AdaptiveSystem(seed=seed)
    sysm.attach_network(linear_path(sysm.sim, ethernet_10(), ("A", "B"),
                                    rng=sysm.rng))
    a = sysm.node("A")
    b = sysm.node("B")
    b.mantts.register_service(SERVICE_PORT, on_deliver=lambda d, m: None)
    return sysm, a, b


def video_acd():
    p = APP_PROFILES["full-motion-video-compressed"]
    return ACD(participants=("B",), quantitative=p.quantitative(),
               qualitative=p.qualitative(), service_port=SERVICE_PORT)


def voice_acd():
    p = APP_PROFILES["voice-conversation"]
    return ACD(participants=("B",), quantitative=p.quantitative(),
               qualitative=p.qualitative(), service_port=SERVICE_PORT)


class TestTimerGroup:
    def test_same_deadline_shares_one_event(self):
        sim = Simulator()
        group = TimerGroup(sim)
        ran = []
        for i in range(5):
            group.at(1.0, lambda i=i: ran.append(i))
        assert group.occupancy == 5
        sim.run(until=2.0)
        assert ran == [0, 1, 2, 3, 4]  # join order within the bucket
        assert group.fires == 1
        assert group.coalesced == 4

    def test_distinct_deadlines_fire_separately(self):
        sim = Simulator()
        group = TimerGroup(sim)
        ran = []
        group.at(1.0, lambda: ran.append("a"))
        group.at(2.0, lambda: ran.append("b"))
        sim.run(until=1.5)
        assert ran == ["a"]
        sim.run(until=2.5)
        assert ran == ["a", "b"]
        assert group.fires == 2

    def test_cancel_member_skips_callback(self):
        sim = Simulator()
        group = TimerGroup(sim)
        ran = []
        group.at(1.0, lambda: ran.append("keep"))
        handle = group.at(1.0, lambda: ran.append("drop"))
        handle.cancel()
        sim.run(until=2.0)
        assert ran == ["keep"]

    def test_last_cancel_drops_kernel_event(self):
        sim = Simulator()
        group = TimerGroup(sim)
        h1 = group.at(1.0, lambda: None)
        h2 = group.at(1.0, lambda: None)
        h1.cancel()
        h2.cancel()
        assert group.occupancy == 0
        assert not group._events and not group._buckets
        sim.run(until=2.0)
        assert group.fires == 0

    def test_on_fire_hook_and_in_fire_flag(self):
        sim = Simulator()
        seen = []
        group = TimerGroup(sim, on_fire=lambda: seen.append("hook"))
        group.at(0.5, lambda: seen.append(group.in_fire))
        sim.run(until=1.0)
        assert seen == ["hook", True]
        assert group.in_fire is False


class TestManagedMonitorLaziness:
    def test_idle_connection_monitor_never_ticks(self):
        sysm, a, b = build()
        conn = a.mantts.open(voice_acd())
        sysm.run(until=2.0)
        assert isinstance(conn.monitor, ManagedMonitor)
        assert not conn.monitor.wants_samples
        assert conn.monitor.samples == 0
        assert a.mantts.manager.sampler_group.occupancy == 0

    def test_subscriber_arms_and_phase_matches_free_running(self):
        sysm, a, b = build()
        conn = a.mantts.open(voice_acd())
        sysm.run(until=1.03)  # mid-interval: a naive re-arm would drift
        times = []
        conn.monitor.on_sample.append(lambda st: times.append(sysm.sim.now))
        sysm.run(until=1.6)
        assert times  # armed by the subscription
        started = conn.monitor._started_at
        interval = conn.monitor.interval
        for t in times:
            k = round((t - started) / interval)
            boundary = started
            for _ in range(k):  # iterated addition, matching the timers
                boundary += interval
            assert t == pytest.approx(boundary, abs=1e-9)

    def test_policy_rule_arms_monitor(self):
        sysm, a, b = build()
        conn = a.mantts.open(video_acd(), default_policies=True)
        sysm.run(until=1.0)
        assert conn.policies.active
        assert conn.monitor.wants_samples
        assert conn.monitor.samples > 0

    def test_stop_disarms(self):
        sysm, a, b = build()
        conn = a.mantts.open(voice_acd())
        conn.monitor.on_sample.append(lambda st: None)
        sysm.run(until=1.0)
        monitor = conn.monitor  # a closed connection lets its monitor go
        before = monitor.samples
        assert before > 0
        conn.close()
        sysm.run(until=2.0)
        assert monitor.samples == before and conn.monitor is None


class TestProbeSharing:
    def test_monitors_share_one_walk_per_fire(self):
        sysm, a, b = build()
        manager = a.mantts.manager
        m1 = manager.monitor_for("B", interval=0.1)
        m2 = manager.monitor_for("B", interval=0.1)
        m1.start()
        m2.start()
        sysm.run(until=1.05)
        assert m1.samples == m2.samples > 0
        assert manager.probe_hits == m1.samples  # second walk served cached
        assert manager.probe_misses == m1.samples

    def test_probe_outside_fire_walks_fresh(self):
        sysm, a, b = build()
        manager = a.mantts.manager
        manager.probe(a.host.network, "A", "B")
        manager.probe(a.host.network, "A", "B")
        assert manager.probe_hits == 0  # eager snapshots never share


class TestScsCache:
    def test_identical_transform_served_from_cache(self):
        sysm, a, b = build()
        manager = a.mantts.manager
        acd = video_acd()
        from repro.mantts.monitor import probe_path  # noqa: F401
        state = manager.monitor_for("B", interval=0.1).snapshot()
        from repro.mantts.tsc import TSC

        tsc = TSC.DISTRIBUTIONAL_ISOCHRONOUS
        s1 = manager.scs_for(acd, state, tsc, "dynamic")
        s2 = manager.scs_for(acd, state, tsc, "dynamic")
        assert manager.scs_hits == 1
        assert s1 is not s2  # fresh clone per connection
        assert s1.config == s2.config
        s1.note("private rationale")
        assert "private rationale" not in s2.rationale


class TestConnectionTable:
    def test_lifecycle_counts_and_key_index(self):
        sysm, a, b = build()
        manager = a.mantts.manager
        conn = a.mantts.open(video_acd())
        assert conn.ref in manager.pending_refs
        sysm.run(until=1.0)
        assert conn.ref in manager.open_refs
        session = conn.session
        key = (session.local_port, session.remote_host, session.remote_port)
        assert manager.lookup(*key) is conn
        conn.close()
        sysm.run(until=2.0)
        assert len(manager) == 0
        assert manager.lookup(*key) is None
        snap = manager.snapshot()
        assert snap["conn_established_total"] == 1.0
        assert snap["conn_closed_total"] == 1.0
        # the admission verdict is recorded where admission ran: B
        assert b.mantts.manager.admission_accepted >= 1

    def test_failed_open_lands_in_failed_total(self):
        sysm, a, b = build()
        acd = ACD(participants=("C",), service_port=SERVICE_PORT,
                  quantitative=QuantitativeQoS(duration=600))
        a.mantts.open(acd)  # no such host: no route to it
        sysm.run(until=12.0)
        manager = a.mantts.manager
        assert manager.snapshot()["conn_failed_total"] == 1.0
        assert manager.failed_by_reason == {ends.PEER_DEAD: 1}
        assert len(manager) == 0

    def test_defer_coalesces_equal_deadlines(self):
        sysm, a, b = build()
        manager = a.mantts.manager
        ran = []
        manager.defer(0.5, lambda: ran.append(1))
        manager.defer(0.5, lambda: ran.append(2))
        sysm.run(until=1.0)
        assert ran == [1, 2]
        assert manager.sampler_group.fires == 1


class TestTelemetryGauges:
    def test_population_gauges_published(self):
        sysm, a, b = build()
        telemetry = sysm.enable_telemetry()
        try:
            conn = a.mantts.open(video_acd())
            sysm.run(until=1.0)
            gauge = telemetry.metrics.gauge(
                "connmgr_open_connections", labels={"host": "A"}
            )
            assert gauge.value == 1.0
            conn.close()
            sysm.run(until=2.0)
            assert gauge.value == 0.0
            accepted = telemetry.metrics.counter(
                "connmgr_admission_decisions_total",
                labels={"host": "B", "verdict": "accept"},
            )
            assert accepted.value >= 1.0
        finally:
            telemetry.disable()
            telemetry.reset()
