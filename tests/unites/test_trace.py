"""Tests for the session tracer."""

import pytest

from repro.netsim.profiles import ethernet_10
from repro.tko.config import SessionConfig
from repro.unites.trace import EVENTS, SessionTracer
from tests.conftest import TwoHosts


class TestSessionTracer:
    def test_records_send_receive_deliver(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        for _ in range(3):
            s.send(b"x" * 400)
        w.sim.run(until=2.0)
        assert tracer.counts["pdu-sent"] >= 3
        assert tracer.counts["pdu-received"] >= 3   # ACKs arrive back
        assert tracer.counts["connected"] == 1

    def test_receiver_side_deliver_events(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        s.send(b"hello")
        w.sim.run(until=1.0)
        rx_tracer = SessionTracer().attach(w.rx_sessions[0])
        s.send(b"again")
        w.sim.run(until=2.0)
        delivers = rx_tracer.of_kind("deliver")
        assert len(delivers) == 1
        assert delivers[0].details["nbytes"] == 5

    def test_retransmit_events_under_loss(self):
        w = TwoHosts(profile=ethernet_10().scaled(ber=4e-6), seed=7)
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        for _ in range(30):
            s.send(b"d" * 1000)
        w.sim.run(until=20.0)
        assert tracer.of_kind("retransmit")
        r = tracer.of_kind("retransmit")[0]
        assert "seq" in r.details and r.details["retries"] >= 1

    def test_segue_events(self):
        from repro.mechanisms.acknowledgment import SelectiveAck
        from repro.mechanisms.retransmission import SelectiveRepeat

        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        w.sim.run(until=0.5)
        s.segue("recovery", SelectiveRepeat())
        s.segue("ack", SelectiveAck())
        segues = tracer.of_kind("segue")
        assert [(e.details["slot"], e.details["mechanism"]) for e in segues] == [
            ("recovery", "sr"),
            ("ack", "selective"),
        ]

    def test_event_filter(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer(events=["deliver"]).attach(s)
        s.send(b"x")
        w.sim.run(until=1.0)
        assert "pdu-sent" not in tracer.counts

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            SessionTracer(events=["teleportation"])

    def test_ring_bounded(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer(max_events=5).attach(s)
        for _ in range(10):
            s.send(b"x" * 100)
        w.sim.run(until=2.0)
        assert len(tracer) == 5
        assert tracer.dropped > 0

    def test_detach_stops_recording(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        s.send(b"x")
        w.sim.run(until=1.0)
        n = len(tracer)
        tracer.detach(s)
        s.send(b"y")
        w.sim.run(until=2.0)
        assert len(tracer) == n

    def test_detach_from_and_attach_to_a_closed_session(self):
        # a closed session is a tombstone, but its observer list is a list
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        s.abort("done")
        assert s.closed and tracer.of_kind("abort")
        tracer.detach(s)
        SessionTracer().attach(s).detach(s)

    def test_render_timeline(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        s.send(b"x")
        w.sim.run(until=1.0)
        out = tracer.render(last=3)
        assert "== trace:" in out
        assert "A:" in out

    def test_between_window(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer().attach(s)
        s.send(b"x")
        w.sim.run(until=1.0)
        assert tracer.between(0.0, 1.0)
        assert tracer.between(5.0, 6.0) == []

    def test_abort_event(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig(max_retries=2))
        tracer = SessionTracer().attach(s)
        s.send(b"x" * 500)
        w.sim.run(until=0.001)
        w.net.fail_link("A", "s1")
        w.sim.run(until=60.0)
        aborts = tracer.of_kind("abort")
        assert aborts and "reason" in aborts[0].details

    def test_filter_on_pause_resume_and_close(self):
        # every event a session emits is one a filter may name
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        tracer = SessionTracer(events=["pause", "resume", "close"]).attach(s)
        w.sim.run(until=0.5)
        s.pause()
        s.resume()
        s.send(b"x")
        w.sim.schedule(0.5, s.close)
        w.sim.run(until=5.0)
        assert [e.event for e in tracer.events] == ["pause", "resume", "close"]


class _StubHost:
    name = "A"


class _StubSession:
    """The minimal surface ``SessionTracer._observe`` reads."""

    def __init__(self):
        self.now = 0.0
        self.conn_id = 1
        self.host = _StubHost()
        self.observers = []


class TestTracerRingExact:
    """Deterministic ring-bounding and filtering, no network required."""

    def test_ring_keeps_exactly_last_n(self):
        stub = _StubSession()
        tracer = SessionTracer(max_events=4)
        for i in range(10):
            stub.now = float(i)
            tracer._observe("deliver", stub, nbytes=i)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        # the retained window is the most recent four, in arrival order
        assert [e.details["nbytes"] for e in tracer.events] == [6, 7, 8, 9]
        assert tracer.counts["deliver"] == 10  # counts survive eviction

    def test_single_slot_ring(self):
        stub = _StubSession()
        tracer = SessionTracer(max_events=1)
        tracer._observe("pdu-sent", stub, seq=1)
        tracer._observe("pdu-sent", stub, seq=2)
        assert len(tracer) == 1
        assert tracer.events[0].details["seq"] == 2
        assert tracer.dropped == 1
        with pytest.raises(ValueError):
            SessionTracer(max_events=0)

    def test_filter_drops_before_counting(self):
        stub = _StubSession()
        tracer = SessionTracer(max_events=8, events=["deliver", "abort"])
        for event in ("pdu-sent", "deliver", "pdu-received", "abort", "deliver"):
            tracer._observe(event, stub)
        assert len(tracer) == 3
        assert tracer.counts == {"deliver": 2, "abort": 1}
        assert tracer.dropped == 0  # filtered events are not "drops"
        assert {e.event for e in tracer.events} == {"deliver", "abort"}

    def test_filter_accepts_every_known_event(self):
        stub = _StubSession()
        tracer = SessionTracer(events=list(EVENTS))
        for event in EVENTS:
            tracer._observe(event, stub)
        assert sorted(tracer.counts) == sorted(EVENTS)

    def test_render_reports_drop_count(self):
        stub = _StubSession()
        tracer = SessionTracer(max_events=2)
        for i in range(5):
            tracer._observe("deliver", stub, nbytes=i)
        out = tracer.render()
        assert "2 events (3 dropped)" in out

    def test_shared_tracer_tags_sessions(self):
        a, b = _StubSession(), _StubSession()
        b.host = type("H", (), {"name": "B"})()
        b.conn_id = 9
        tracer = SessionTracer()
        tracer._observe("connected", a)
        tracer._observe("connected", b)
        assert [e.session for e in tracer.events] == ["A:1", "B:9"]
