"""Tests for UNITES-X: registry, telemetry bus, exporters, instrumentation."""

import json

import pytest

from repro.sim.kernel import Simulator
from repro.tko.config import SessionConfig
from repro.unites.obs.exporters import (
    render_prometheus,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)
from repro.unites.obs.registry import MetricRegistry
from repro.unites.obs.telemetry import NULL_SPAN, TELEMETRY, Telemetry
from repro.unites.repository import MetricRepository
from tests.conftest import TwoHosts


@pytest.fixture(autouse=True)
def clean_global_telemetry():
    """The global handle must never leak state between tests."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# ----------------------------------------------------------------------
# metric registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotone(self):
        r = MetricRegistry()
        c = r.counter("pdus_total")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricRegistry().gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_get_or_create_is_stable(self):
        r = MetricRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a", {"x": "1"}) is not r.counter("a", {"x": "2"})
        assert r.counter("a", {"x": "1", "y": "2"}) is r.counter("a", {"y": "2", "x": "1"})

    def test_kind_conflict_rejected(self):
        r = MetricRegistry()
        r.counter("n")
        with pytest.raises(ValueError):
            r.gauge("n")

    def test_flat_name_labels(self):
        c = MetricRegistry().counter("drops", {"link": "a->b", "reason": "mtu"})
        assert c.flat_name == 'drops{link="a->b",reason="mtu"}'

    def test_histogram_quantiles(self):
        h = MetricRegistry().histogram("lat", bounds=[0.1, 0.2, 0.5, 1.0])
        for v in (0.05, 0.05, 0.15, 0.3, 0.7):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(sum((0.05, 0.05, 0.15, 0.3, 0.7)) / 5)
        assert h.quantile(0.0) is not None
        assert h.quantile(0.5) == 0.2
        assert h.quantile(1.0) == 1.0
        h.observe(99.0)  # lands in +Inf bucket
        assert h.quantile(1.0) == float("inf")

    def test_histogram_empty_and_bad_bounds(self):
        h = MetricRegistry().histogram("x")
        assert h.quantile(0.5) is None and h.mean is None
        with pytest.raises(ValueError):
            MetricRegistry().histogram("y", bounds=[2.0, 1.0])
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_snapshot_and_collect(self):
        r = MetricRegistry()
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        h = r.histogram("h", bounds=[1.0, 2.0])
        h.observe(0.5)
        snap = r.snapshot()
        assert snap["c"] == 2 and snap["g"] == 1.5
        assert snap["h_count"] == 1 and snap["h_sum"] == 0.5
        assert snap["h_p50"] == 1.0
        assert [m.name for m in r.collect()] == ["c", "g", "h"]
        assert len(r) == 3

    def test_to_repository_bridge(self):
        r = MetricRegistry()
        r.counter("kernel_events_total").inc(7)
        repo = MetricRepository()
        n = r.to_repository(repo, time=1.0)
        assert n == 1
        assert repo.latest("kernel_events_total", "system", "") == 7.0

    def test_link_scope_accepted(self):
        repo = MetricRepository()
        repo.record(0.5, "link", "a->b", "frames_dropped", 3.0)
        assert repo.latest("frames_dropped", "link", "a->b") == 3.0
        with pytest.raises(ValueError):
            repo.record(0.5, "galaxy", "", "x", 1.0)


# ----------------------------------------------------------------------
# telemetry bus
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_disabled_is_nullspan(self):
        t = Telemetry()
        assert t.span("a") is NULL_SPAN
        assert t.begin("a") is NULL_SPAN
        t.instant("a")
        t.complete("a", "c", 0.0, 1.0)
        NULL_SPAN.annotate(x=1).end()
        with NULL_SPAN:
            pass
        assert not t.spans and not t.instants

    def test_stacked_spans_nest(self):
        t = Telemetry().enable()
        with t.span("outer", "x"):
            with t.span("inner", "x") as inner:
                assert inner.parent == "outer"
                assert inner.depth == 1
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_sim_clock_and_duration(self):
        sim = Simulator()
        t = Telemetry().enable(sim=sim)
        span = t.begin("phase")
        sim.schedule(2.5, lambda: span.end())
        sim.run()
        assert span.sim_start == 0.0
        assert span.sim_end == 2.5
        assert span.sim_duration == 2.5
        assert span.wall_us >= 0.0

    def test_end_is_idempotent(self):
        t = Telemetry().enable()
        s = t.begin("once")
        s.end(outcome="first")
        s.end(outcome="second")
        assert len(t.spans) == 1
        assert t.spans[0].args["outcome"] == "first"

    def test_exception_annotates_error(self):
        t = Telemetry().enable()
        with pytest.raises(RuntimeError):
            with t.span("risky"):
                raise RuntimeError("boom")
        assert t.spans[0].args["error"] == "RuntimeError"

    def test_record_cap_counts_drops(self):
        t = Telemetry().enable(max_records=3)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t.spans) == 3
        assert t.dropped == 2
        for _ in range(4):
            t.instant("i")
        assert len(t.instants) == 3 and t.dropped == 3

    def test_reset_clears_everything(self):
        sim = Simulator()
        t = Telemetry().enable(sim=sim)
        with t.span("a"):
            pass
        t.instant("b")
        t.metrics.counter("c").inc()
        t.reset()
        assert not t.spans and not t.instants and len(t.metrics) == 0
        assert t.now == 0.0

    def test_categories_and_summary(self):
        t = Telemetry().enable()
        with t.span("a", "kernel"):
            pass
        with t.span("b", "tko"):
            pass
        t.instant("x", "tko")
        assert t.categories() == {"kernel": 1, "tko": 1}
        assert t.spans_named("a")
        assert "2 spans" in t.summary() and "kernel" in t.summary()


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _populated_telemetry() -> Telemetry:
    sim = Simulator()
    t = Telemetry().enable(sim=sim)
    span = t.begin("negotiation", "mantts", conn="A-1")
    sim.schedule(0.5, span.end)
    sim.run()
    t.instant("link-fail", "netsim", link="a->b")
    t.complete("link-tx", "netsim", 0.1, 0.2, link="a->b")
    t.metrics.counter("frames_total", {"link": "a->b"}, help="frames").inc(3)
    t.metrics.histogram("handler_s", help="secs").observe(0.002)
    return t


class TestExporters:
    def test_jsonl_round_trips(self):
        t = _populated_telemetry()
        records = [json.loads(line) for line in to_jsonl(t).splitlines()]
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "instant", "metric"}
        span = next(r for r in records if r["type"] == "span")
        assert {"name", "category", "sim_start", "sim_end", "wall_us"} <= set(span)

    def test_chrome_trace_shape(self):
        t = _populated_telemetry()
        trace = to_chrome_trace(t)
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
        xs = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(xs) == 2 and len(instants) == 1
        nego = next(e for e in xs if e["name"] == "negotiation")
        assert nego["ts"] == 0.0 and nego["dur"] == pytest.approx(0.5e6)
        # per-category tracks: both netsim events share a tid
        netsim_tids = {e["tid"] for e in events
                       if e.get("cat") == "netsim" and e["ph"] in "Xi"}
        assert len(netsim_tids) == 1
        ts = [e["ts"] for e in events if e["ph"] in "Xi"]
        assert ts == sorted(ts)

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        t = _populated_telemetry()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(t, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == n
        assert loaded["otherData"]["spans"] == 2

    def test_prometheus_text(self):
        t = _populated_telemetry()
        text = render_prometheus(t.metrics)
        assert "# HELP frames_total frames" in text
        assert "# TYPE frames_total counter" in text
        assert 'frames_total{link="a->b"} 3' in text
        assert "# TYPE handler_s histogram" in text
        assert 'handler_s_bucket{le="+Inf"} 1' in text
        assert "handler_s_sum 0.002" in text
        assert "handler_s_count 1" in text
        # cumulative buckets never decrease
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if line.startswith("handler_s_bucket")]
        assert counts == sorted(counts)

    def test_present_render_prometheus_wrapper(self):
        from repro.unites.present import render_prometheus as present_render

        TELEMETRY.enable()
        TELEMETRY.metrics.counter("via_wrapper_total").inc()
        assert "via_wrapper_total 1" in present_render()


# ----------------------------------------------------------------------
# kernel instrumentation
# ----------------------------------------------------------------------
class TestKernelInstrumentation:
    def test_dispatch_metrics_and_spans(self):
        sim = Simulator()
        TELEMETRY.enable(sim=sim)
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run()
        m = TELEMETRY.metrics
        assert m.get("kernel_events_dispatched_total").value == 5
        assert m.get("kernel_heap_depth").value == 0.0
        hist = next(x for x in m.collect() if x.name == "kernel_handler_seconds")
        assert hist.count == 5
        assert TELEMETRY.categories()["kernel"] == 5
        assert all(s.wall_us >= 0 for s in TELEMETRY.spans)

    def test_lazy_deletion_ratio(self):
        sim = Simulator()
        # cancelled timers sit at the top of the heap, so the kernel must
        # lazily skip all three before reaching the live event
        for _ in range(3):
            sim.cancel(sim.schedule(0.5, lambda: None))
        keep = sim.schedule(1.0, lambda: None)
        assert sim._queue.heap_depth == 4
        sim.run()
        q = sim._queue
        assert q.popped_live == 1 and q.skipped_cancelled == 3
        assert q.lazy_deletion_ratio == pytest.approx(0.75)
        assert keep.cancelled is False

    def test_disabled_records_nothing(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert not TELEMETRY.spans and len(TELEMETRY.metrics) == 0


# ----------------------------------------------------------------------
# full-stack integration
# ----------------------------------------------------------------------
class TestFullStack:
    def test_transfer_spans_every_layer(self):
        w = TwoHosts()
        TELEMETRY.enable(sim=w.sim)
        w.transfer(SessionConfig(), [b"x" * 2000] * 5, until=5.0)
        cats = TELEMETRY.categories()
        assert {"kernel", "netsim", "tko", "mechanism"} <= set(cats)
        sends = TELEMETRY.spans_named("session-send")
        assert len(sends) == 5
        assert all(s.category == "tko" for s in sends)
        m = TELEMETRY.metrics
        flat = m.snapshot()
        assert any(k.startswith("link_frames_enqueued_total") for k in flat)
        assert any(k.startswith("link_frames_delivered_total") for k in flat)
        assert any(k.startswith("mechanism_invocations_total") for k in flat)

    def test_link_drop_counters_by_reason(self):
        w = TwoHosts()
        TELEMETRY.enable(sim=w.sim)
        link = w.net.link("A", "s1")
        from repro.netsim.frame import Frame

        big = Frame(src="A", dst="B", size=link.mtu + 1, payload=None)
        assert link.send(big) is False
        w.net.fail_link("A", "s1")
        down = Frame(src="A", dst="B", size=100, payload=None)
        assert link.send(down) is False
        m = TELEMETRY.metrics
        assert m.get("link_frames_dropped_total",
                     {"link": "A->s1", "reason": "mtu"}).value == 1
        assert m.get("link_frames_dropped_total",
                     {"link": "A->s1", "reason": "down"}).value == 1
        names = {i["name"] for i in TELEMETRY.instants}
        assert {"link-drop", "link-fail"} <= names
        w.net.restore_link("A", "s1")
        assert "link-restore" in {i["name"] for i in TELEMETRY.instants}

    def test_mantts_connection_spans(self):
        from repro import ACD, APP_PROFILES, AdaptiveSystem
        from repro.netsim.profiles import fddi_100, star

        system = AdaptiveSystem(seed=3)
        system.attach_network(
            star(system.sim, fddi_100(), ["a", "b"], rng=system.rng)
        )
        na = system.node("a")
        nb = system.node("b")
        nb.mantts.register_service(7000)
        system.enable_telemetry()
        profile = APP_PROFILES["tele-conferencing"]
        acd = ACD(
            participants=("b",),
            quantitative=profile.quantitative(),
            qualitative=profile.qualitative(),
            service_port=7000,
        )
        conn = na.mantts.open(acd)
        system.run(until=1.0)
        assert conn.session is not None
        setup = TELEMETRY.spans_named("connection-setup")
        assert len(setup) == 1
        assert setup[0].args["outcome"] == "connected"
        assert setup[0].sim_end is not None
        assert TELEMETRY.spans_named("session-instantiate")

    def test_unites_watchers_and_prometheus(self):
        from repro.unites.collect import UNITES

        w = TwoHosts()
        TELEMETRY.enable(sim=w.sim)
        u = UNITES(w.sim)
        u.watch_network(w.net, interval=0.5)
        u.watch_telemetry(interval=0.5)
        w.transfer(SessionConfig(), [b"y" * 1500] * 3, until=4.0)
        links = u.repository.entities("link")
        assert "A->s1" in links
        assert u.repository.latest("frames_delivered", "link", "A->s1") > 0
        assert (
            u.repository.latest("kernel_events_dispatched_total", "system", "")
            > 0
        )
        text = u.prometheus()
        assert "# TYPE kernel_events_dispatched_total counter" in text
        report = u.report()
        assert "per-link" in report

    def test_session_snapshot_mirrors_to_registry(self):
        from repro.unites.metrics import session_snapshot

        w = TwoHosts()
        s = w.transfer(SessionConfig(), [b"z" * 800], until=2.0)
        reg = MetricRegistry()
        values = session_snapshot(s, registry=reg, entity="conn-1")
        g = reg.get("unites_throughput_bps", {"session": "conn-1"})
        assert g is not None
        assert g.value == pytest.approx(values["throughput_bps"])


# ----------------------------------------------------------------------
# lazy package exports
# ----------------------------------------------------------------------
def test_unites_package_lazy_exports():
    import repro.unites as unites

    assert unites.TELEMETRY is TELEMETRY
    assert unites.MetricRegistry is MetricRegistry
    assert unites.UNITES.__name__ == "UNITES"
    assert "TELEMETRY" in dir(unites)
    with pytest.raises(AttributeError):
        unites.no_such_export
