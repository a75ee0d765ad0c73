"""Unit tests for the link model: serialization, queueing, errors."""

import pytest

from repro.netsim.frame import Frame, PRIO_CONTROL, PRIO_NORMAL
from repro.netsim.link import Link
from repro.sim.rng import RngStreams


def make_link(sim, **kw):
    got = []
    defaults = dict(
        bandwidth_bps=8e6, delay=0.001, ber=0.0, queue_limit=4, mtu=1500
    )
    defaults.update(kw)
    link = Link(sim, RngStreams(0), "t", deliver=got.append, **defaults)
    return link, got


class TestLinkBasics:
    def test_serialization_time(self, sim):
        link, _ = make_link(sim)
        assert link.serialization_time(1000) == pytest.approx(1000 * 8 / 8e6)

    def test_delivery_latency(self, sim):
        link, got = make_link(sim)
        arrive = []
        link.deliver = lambda f: arrive.append(sim.now)
        link.send(Frame("A", "B", 1000))
        sim.run()
        assert arrive[0] == pytest.approx(0.001 + 0.001)  # ser + prop

    def test_fifo_order(self, sim):
        link, got = make_link(sim)
        f1, f2 = Frame("A", "B", 100), Frame("A", "B", 100)
        link.send(f1)
        link.send(f2)
        sim.run()
        assert [f.id for f in got] == [f1.id, f2.id]

    def test_back_to_back_burst_is_fifo_and_pipelined(self, sim):
        link, got = make_link(sim, queue_limit=16)
        frames = [Frame("A", "B", 500) for _ in range(6)]
        for frame in frames:
            link.send(frame)
        sim.run()
        # FIFO delivery, last arrival = six serializations + one delay
        assert [f.id for f in got] == [f.id for f in frames]
        assert sim.now == pytest.approx(6 * 500 * 8 / 8e6 + 0.001)
        # one landing per frame, one drain per frame that had to wait
        assert sim.events_dispatched == 6 + 5

    def test_bad_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, RngStreams(0), "x", bandwidth_bps=0, delay=0.0)
        with pytest.raises(ValueError):
            Link(sim, RngStreams(0), "x", bandwidth_bps=1e6, delay=-1)
        with pytest.raises(ValueError):
            Link(sim, RngStreams(0), "x", bandwidth_bps=1e6, delay=0, ber=1.0)


class TestQueueing:
    def test_overflow_drops(self, sim):
        link, got = make_link(sim, queue_limit=2)
        results = [link.send(Frame("A", "B", 1500)) for _ in range(6)]
        # 1 transmitting immediately + 2 queued accepted; rest dropped
        assert results.count(True) == 3
        assert link.stats.dropped_overflow == 3
        sim.run()
        assert len(got) == 3

    def test_queue_len_excludes_in_flight(self, sim):
        link, _ = make_link(sim, queue_limit=10)
        link.send(Frame("A", "B", 1500))
        link.send(Frame("A", "B", 1500))
        assert link.queue_len == 1

    def test_queue_len_count_equals_recount(self, sim):
        # queue_len is a maintained count; every site that moves a frame
        # in or out of the queues must keep it equal to the recount
        link, _ = make_link(sim, queue_limit=6)

        def recount():
            return sum(len(q) for q in link._queues)

        prios = (PRIO_NORMAL, PRIO_CONTROL, 2)
        for i in range(10):  # one on the wire, six queued, three overflow
            link.send(Frame("A", "B", 1500, priority=prios[i % 3]))
        assert link.stats.dropped_overflow == 3
        assert link.queue_len == recount() == 6
        link.set_queue_limit(2)  # shrink drops from the back
        assert link.queue_len == recount() == 2
        sim.run(until=0.002)  # _drain dequeues as the wire frees
        assert link.queue_len == recount() == 1
        link.send(Frame("A", "B", 1500))
        link.fail()
        assert link.queue_len == recount() == 0
        link.restore()
        link.send(Frame("A", "B", 1500))
        assert link.queue_len == recount() == 1  # behind the doomed frame
        sim.run()
        assert link.queue_len == recount() == 0

    def test_oversize_frame_is_black_holed(self, sim):
        link, got = make_link(sim, mtu=1500)
        assert link.send(Frame("A", "B", 1501)) is False
        assert link.stats.dropped_mtu == 1
        sim.run()
        assert got == []

    def test_priority_preempts_queue_order(self, sim):
        link, got = make_link(sim, queue_limit=10)
        first = Frame("A", "B", 1500, priority=PRIO_NORMAL)
        normal = Frame("A", "B", 1500, priority=PRIO_NORMAL)
        urgent = Frame("A", "B", 1500, priority=PRIO_CONTROL)
        link.send(first)      # starts transmitting
        link.send(normal)     # queued
        link.send(urgent)     # queued, higher class
        sim.run()
        assert [f.id for f in got] == [first.id, urgent.id, normal.id]

    def test_utilization_accounting(self, sim):
        link, _ = make_link(sim)
        link.send(Frame("A", "B", 1000))
        sim.run()
        assert link.stats.busy_time == pytest.approx(0.001)
        assert link.stats.utilization(0.01) == pytest.approx(0.1)


class TestErrors:
    def test_zero_ber_never_corrupts(self, sim):
        link, got = make_link(sim)
        for _ in range(50):
            link.send(Frame("A", "B", 100))
        sim.run()
        assert link.stats.corrupted == 0
        assert not any(f.corrupted for f in got)

    def test_high_ber_corrupts_most(self, sim):
        link, got = make_link(sim, ber=1e-3, queue_limit=1000)
        for _ in range(100):
            link.send(Frame("A", "B", 1000))
        sim.run()
        # p(corrupt) = 1-(1-1e-3)^8000 ≈ 1.0
        assert link.stats.corrupted >= 95
        assert len(got) == 100  # corrupted frames still delivered

    def test_corruption_is_deterministic_per_seed(self, sim):
        def run():
            from repro.sim.kernel import Simulator

            s = Simulator()
            link = Link(s, RngStreams(5), "d", bandwidth_bps=8e6, delay=0.0, ber=1e-5, queue_limit=100)
            flags = []
            link.deliver = lambda f: flags.append(f.corrupted)
            for _ in range(200):
                link.send(Frame("A", "B", 1000))
            s.run()
            return flags

        assert run() == run()


class TestFailure:
    def test_down_link_drops_sends(self, sim):
        link, got = make_link(sim)
        link.fail()
        assert link.send(Frame("A", "B", 100)) is False
        assert link.stats.dropped_down == 1
        sim.run()
        assert got == []

    def test_fail_drops_queued(self, sim):
        link, got = make_link(sim, queue_limit=10)
        for _ in range(4):
            link.send(Frame("A", "B", 1500))
        link.fail()
        sim.run()
        assert got == []  # in-flight one also lost at tx completion
        assert link.stats.dropped_down >= 3

    def test_restore(self, sim):
        link, got = make_link(sim)
        link.fail()
        link.restore()
        assert link.send(Frame("A", "B", 100)) is True
        sim.run()
        assert len(got) == 1


class TestByteCounters:
    """UNITES byte counters alongside the frame counters (Issue 9)."""

    @pytest.fixture(autouse=True)
    def _telemetry(self, sim):
        from repro.unites.obs.telemetry import TELEMETRY

        TELEMETRY.enable(sim=sim)
        yield TELEMETRY
        TELEMETRY.disable()
        TELEMETRY.reset()

    def _counter(self, t, name, **labels):
        c = t.metrics.get(name, labels or None)
        return 0 if c is None else c.value

    def test_enqueued_and_delivered_bytes(self, sim, _telemetry):
        link, got = make_link(sim, queue_limit=10)
        sizes = [100, 700, 1400]
        for n in sizes:
            link.send(Frame("A", "B", n))
        sim.run()
        t = _telemetry
        assert self._counter(t, "link_bytes_enqueued_total", link="t") == sum(sizes)
        assert self._counter(t, "link_bytes_delivered_total", link="t") == sum(sizes)
        assert link.stats.bytes_delivered == sum(sizes)
        assert self._counter(t, "link_frames_delivered_total", link="t") == len(sizes)

    def test_overflow_drop_counts_bytes(self, sim, _telemetry):
        link, _ = make_link(sim, queue_limit=1)
        for _ in range(4):
            link.send(Frame("A", "B", 1000))
        dropped = self._counter(
            _telemetry, "link_bytes_dropped_total", link="t", reason="overflow")
        # 1 on the wire + 1 queued accepted; the rest dropped with their bytes
        assert dropped == 2000
        assert self._counter(
            _telemetry, "link_frames_dropped_total", link="t", reason="overflow") == 2

    def test_mtu_drop_counts_bytes(self, sim, _telemetry):
        link, _ = make_link(sim)
        link.send(Frame("A", "B", link.mtu + 100))
        assert self._counter(
            _telemetry, "link_bytes_dropped_total", link="t", reason="mtu") == link.mtu + 100

    def test_down_drop_counts_bytes(self, sim, _telemetry):
        link, _ = make_link(sim)
        link.fail()
        link.send(Frame("A", "B", 600))
        assert self._counter(
            _telemetry, "link_bytes_dropped_total", link="t", reason="down") == 600

    def test_fail_drain_counts_queued_bytes(self, sim, _telemetry):
        link, _ = make_link(sim, queue_limit=10)
        for _ in range(4):
            link.send(Frame("A", "B", 500))
        link.fail()
        # 3 queued frames drain (one is on the wire; it drops at tx-done)
        assert self._counter(
            _telemetry, "link_bytes_dropped_total", link="t", reason="down") == 1500
        sim.run()
        assert self._counter(
            _telemetry, "link_bytes_dropped_total", link="t", reason="down") == 2000
