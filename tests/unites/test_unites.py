"""Tests for UNITES: metrics, repository, collection, analysis, display."""

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD, TMC
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko.config import SessionConfig
from repro.unites.analyze import compare, percentile, summarize, time_weighted_mean
from repro.unites.collect import UNITES
from repro.unites.experiment import Experiment
from repro.unites.metrics import BLACKBOX, METRICS, WHITEBOX, session_snapshot
from repro.unites.obs.telemetry import TELEMETRY
from repro.unites.present import render_csv, render_series, render_table
from repro.unites.repository import MetricRepository
from tests.conftest import TwoHosts


class TestMetricCatalogue:
    def test_paper_blackbox_metrics_present(self):
        # §4.3: throughput (packets/s) and latency are the blackbox pair
        assert "throughput_pps" in BLACKBOX
        assert "latency" in BLACKBOX

    def test_paper_whitebox_metrics_present(self):
        for name in (
            "connection_setup_time",
            "retransmissions",
            "instructions_per_pdu",
            "jitter",
            "loss_rate",
        ):
            assert name in WHITEBOX

    def test_classes_partition(self):
        assert set(BLACKBOX) | set(WHITEBOX) == set(METRICS)
        assert not set(BLACKBOX) & set(WHITEBOX)

    def test_snapshot_on_live_session(self):
        w = TwoHosts()
        s = w.transfer(SessionConfig(), [b"x" * 1000] * 5, until=3.0)
        snap = session_snapshot(s)
        assert snap["throughput_pps"] > 0
        assert snap["retransmission_rate"] is not None
        assert snap["cpu_utilization"] > 0

    def test_snapshot_subset_and_unknown(self):
        w = TwoHosts()
        s = w.transfer(SessionConfig(), [b"x"], until=1.0)
        snap = session_snapshot(s, ["rtt", "acks_sent"])
        assert set(snap) == {"rtt", "acks_sent"}
        with pytest.raises(KeyError):
            session_snapshot(s, ["bogus"])


class TestRepository:
    def test_record_and_series(self):
        r = MetricRepository()
        r.record(0.0, "session", "c1", "rtt", 0.01)
        r.record(1.0, "session", "c1", "rtt", 0.02)
        assert r.series("rtt", "session", "c1") == [(0.0, 0.01), (1.0, 0.02)]
        assert r.latest("rtt", "session", "c1") == 0.02

    def test_scopes_validated(self):
        with pytest.raises(ValueError):
            MetricRepository().record(0, "galaxy", "x", "m", 1.0)

    def test_systemwide_values(self):
        r = MetricRepository()
        r.record(0, "session", "c1", "loss", 0.1)
        r.record(0, "session", "c2", "loss", 0.3)
        r.record(0, "host", "A", "loss", 0.9)
        assert sorted(r.values("loss", scope="session")) == [0.1, 0.3]
        assert len(r.values("loss")) == 3

    def test_entities_and_metrics_listing(self):
        r = MetricRepository()
        r.record(0, "session", "c1", "rtt", 1)
        r.record(0, "session", "c1", "loss", 0)
        assert r.entities("session") == ["c1"]
        assert r.metrics_for("session", "c1") == ["loss", "rtt"]

    def test_none_values_skipped(self):
        r = MetricRepository()
        r.record_many(0, "session", "c1", {"a": None, "b": 1.0})
        assert len(r) == 1


class TestCollector:
    def test_periodic_sampling(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        unites = UNITES(w.sim)
        unites.watch_session(s, "c1", metrics=["rtt", "acks_received"], interval=0.1)
        for _ in range(5):
            s.send(b"x" * 500)
        w.sim.run(until=1.05)
        series = unites.repository.series("acks_received", "session", "c1")
        assert len(series) == 10

    def test_collector_stops_after_close(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        unites = UNITES(w.sim)
        timer = unites.watch_session(s, "c1", metrics=["rtt"], interval=0.1)
        s.send(b"x")
        w.sim.schedule(0.5, s.close)
        w.sim.run(until=3.0)
        assert not timer.armed
        n = len(unites.repository)
        w.sim.schedule(3.0, lambda: None)
        w.sim.run(until=5.0)
        assert len(unites.repository) == n

    def test_unknown_metric_rejected(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        with pytest.raises(KeyError):
            UNITES(w.sim).watch_session(s, "c", metrics=["zap"])

    def test_watch_host(self):
        w = TwoHosts()
        unites = UNITES(w.sim)
        timer = unites.watch_host(w.ha, interval=0.2)
        w.sim.run(until=1.0)
        assert unites.repository.series("cpu_utilization", "host", "A")
        timer.cancel()


#: the six collection routes, each started at one instant on one world
ROUTES = ("instrument", "watch_session", "watch_host", "watch_manager",
          "watch_network", "watch_telemetry")
SESSION_ROUTES = ("instrument", "watch_session")
INTERVAL = 0.1


def connected_world():
    """An initiator A with one established connection to B, no TMC."""
    sysm = AdaptiveSystem(seed=21)
    sysm.attach_network(linear_path(sysm.sim, ethernet_10(), ("A", "B"), rng=sysm.rng))
    a, b = sysm.node("A"), sysm.node("B")
    b.mantts.register_service(7000, on_deliver=lambda d, m: None)
    conn = a.mantts.open(ACD(participants=("B",),
                             quantitative=QuantitativeQoS(duration=600),
                             qualitative=QualitativeQoS()))
    sysm.run(until=0.5)
    assert conn.session is not None and conn.session.connected
    return sysm, a, conn


def start_route(route, sysm, a, conn):
    """Start ``route`` now; return its handle and the scope / entity its
    rows must land under."""
    u = sysm.unites
    if route == "instrument":
        tmc = TMC(metrics=("acks_sent",), sampling_interval=INTERVAL)
        return u.instrument(conn, tmc), "session", conn.ref
    if route == "watch_session":
        return (u.watch_session(conn.session, "c1", metrics=["acks_sent"],
                                interval=INTERVAL), "session", "c1")
    if route == "watch_host":
        return u.watch_host(a.host, interval=INTERVAL), "host", "A"
    if route == "watch_manager":
        return u.watch_manager(a.mantts.manager, interval=INTERVAL), "host", "A"
    if route == "watch_network":
        return u.watch_network(sysm.network, interval=INTERVAL), "link", "A->s1"
    TELEMETRY.enable(sim=sysm.sim)
    # the registry would be empty until the kernel counts its first dispatch
    TELEMETRY.metrics.counter("probe_total").inc()
    return u.watch_telemetry(interval=INTERVAL), "system", ""


def sample_times(repo, scope, entity):
    return sorted({t for m in repo.metrics_for(scope, entity)
                   for t, _ in repo.series(m, scope, entity)})


class TestEveryRoute:
    @pytest.fixture(autouse=True)
    def clean_global_telemetry(self):
        yield
        TELEMETRY.disable()
        TELEMETRY.reset()

    @pytest.mark.parametrize("route", ROUTES)
    def test_route_samples_until_cancelled_or_closed(self, route):
        sysm, a, conn = connected_world()
        repo = sysm.unites.repository
        t0 = sysm.now
        handle, scope, entity = start_route(route, sysm, a, conn)
        sysm.run(until=t0 + 3.5 * INTERVAL)
        # rows land under the route's scope and entity, at its instants
        assert sample_times(repo, scope, entity) == pytest.approx(
            [t0 + k * INTERVAL for k in (1, 2, 3)])
        in_scope = sum(len(repo.series(m, scope, e)) for e in repo.entities(scope)
                       for m in repo.metrics_for(scope, e))
        assert in_scope == len(repo) > 0
        # the handle every route returns stops it
        handle.cancel()
        n = len(repo)
        sysm.run(until=t0 + 10 * INTERVAL)
        assert len(repo) == n

        if route not in SESSION_ROUTES:
            return
        # a session route takes one sample after its session has closed,
        # then stands down by itself
        sysm, a, conn = connected_world()
        handle, scope, entity = start_route(route, sysm, a, conn)
        session = conn.session
        conn.close()
        sysm.run(until=sysm.now + 5.0)
        assert session.closed and not handle.armed
        closed_at = session.stats.closed_at
        assert [t for t in sample_times(sysm.unites.repository, scope, entity)
                if t >= closed_at] == [pytest.approx(closed_at, abs=INTERVAL)]


class TestAnalysis:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["n"] == 4 and s["mean"] == 2.5 and s["min"] == 1.0

    def test_summarize_empty(self):
        assert summarize([])["n"] == 0

    def test_percentile(self):
        assert percentile(list(range(101)), 95) == pytest.approx(95.0)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_compare_direction(self):
        base = {"throughput_bps": 100.0, "latency": 0.2}
        cand = {"throughput_bps": 150.0, "latency": 0.1}
        out = compare(base, cand)
        assert out["throughput_bps"]["better"] == 1
        assert out["latency"]["better"] == 1
        out2 = compare(cand, base)
        assert out2["throughput_bps"]["better"] == -1

    def test_compare_skips_missing(self):
        assert compare({"a": 1.0}, {"b": 2.0}) == {}

    def test_time_weighted_mean(self):
        series = [(0.0, 10.0), (1.0, 0.0), (3.0, 0.0)]
        # 10 for 1s, then 0 for 2s
        assert time_weighted_mean(series) == pytest.approx(10 / 3)


class TestPresentation:
    ROWS = [{"variant": "a", "x": 1.0}, {"variant": "b", "x": 23456.789}]

    def test_table_alignment(self):
        out = render_table(self.ROWS, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "variant" in lines[1]
        assert len(lines) == 5

    def test_table_empty(self):
        assert "no data" in render_table([])

    def test_csv(self):
        out = render_csv(self.ROWS)
        assert out.splitlines()[0] == "variant,x"
        assert out.splitlines()[1] == "a,1"

    def test_series_plot(self):
        out = render_series([(0.0, 1.0), (1.0, 5.0)], width=20, height=4, label="rtt")
        assert "rtt" in out and "*" in out

    def test_series_empty(self):
        assert "no samples" in render_series([])


class TestExperimentHarness:
    def test_run_and_table(self):
        e = Experiment("demo")
        e.add_variant("fast", lambda: {"throughput_bps": 200.0, "loss": 0.0})
        e.add_variant("slow", lambda: {"throughput_bps": 50.0, "loss": 0.1})
        e.run()
        assert e.winner("throughput_bps") == "fast"
        assert e.winner("loss", higher_is_better=False) == "fast"
        assert "demo" in e.table()

    def test_compare_variants(self):
        e = Experiment("demo")
        e.add_variant("a", lambda: {"x": 1.0})
        e.add_variant("b", lambda: {"x": 3.0})
        e.run()
        assert e.compare("a", "b")["x"]["ratio"] == pytest.approx(3.0)

    def test_unknown_variant(self):
        e = Experiment("demo")
        e.add_variant("a", lambda: {"x": 1.0})
        e.run()
        with pytest.raises(KeyError):
            e.result("zzz")

    def test_table_before_run_rejected(self):
        with pytest.raises(RuntimeError):
            Experiment("x").table()
