"""EventChain: batched monotone event streams (the link batch-drain hook).

A chain keeps one heap-resident sentinel for a whole stream of
nondecreasing-time occurrences; the run loop may drain several
occurrences off a single heap pop when nothing else can precede them.
The contract under test: total ``(time, priority, seq)`` order is
bit-identical to scheduling every occurrence as its own transient event,
and out-of-order appends transparently fall back to the plain API.
"""

import pytest

from repro.sim.kernel import Simulator


def _mixed_workload(sim, fired, schedule_stream):
    """Interleave a monotone stream with foreign events at touching times.

    ``schedule_stream(time, tag)`` schedules one stream occurrence
    appending ``tag`` to ``fired``; plain events land before, between,
    and exactly *at* stream times so ties must be broken by seq
    (schedule order).
    """
    note = fired.append
    schedule_stream(0.010, "s0")
    sim.schedule_at(0.010, note, "p0")      # same time, later seq
    schedule_stream(0.010, "s1")            # same time again, later still
    sim.schedule_at(0.005, note, "p1")
    schedule_stream(0.020, "s2")
    schedule_stream(0.020, "s3")
    schedule_stream(0.020, "s4")            # back-to-back burst
    sim.schedule_at(0.030, note, "p2")
    schedule_stream(0.040, "s5")


class TestOrderIdentity:
    def test_chain_order_matches_per_event_scheme(self):
        ref_sim = Simulator()
        ref = []
        _mixed_workload(
            ref_sim, ref,
            lambda t, tag: ref_sim.schedule_transient_at(t, ref.append, tag),
        )
        ref_sim.run()

        chain_sim = Simulator()
        chain = chain_sim.make_chain()
        got = []
        _mixed_workload(
            chain_sim, got,
            lambda t, tag: chain.schedule_at(t, got.append, tag))
        chain_sim.run()

        assert got == ref
        assert chain_sim.now == ref_sim.now

    def test_equal_time_fifo_against_foreign_events(self, sim):
        fired = []
        chain = sim.make_chain()
        sim.schedule_at(0.01, fired.append, "plain-first")
        chain.schedule_at(0.01, fired.append, "chain-second")
        sim.schedule_at(0.01, fired.append, "plain-third")
        sim.run()
        assert fired == ["plain-first", "chain-second", "plain-third"]


class TestChainMechanics:
    def test_burst_drains_inline_off_one_pop(self, sim):
        chain = sim.make_chain()
        fired = []
        for i in range(8):
            chain.schedule_at(0.01, fired.append, i)
        sim.run()
        assert fired == list(range(8))
        assert chain.appended == 8
        # nothing else was pending, so the burst fired off one heap pop
        assert chain.drained_inline >= 6

    def test_non_monotone_append_falls_back(self, sim):
        chain = sim.make_chain()
        fired = []
        chain.schedule_at(0.02, fired.append, "late")
        chain.schedule_at(0.01, fired.append, "early")  # out of order
        sim.run()
        assert fired == ["early", "late"]
        assert chain.fallbacks == 1
        assert chain.appended == 1

    def test_len_and_disarm(self, sim):
        chain = sim.make_chain()
        assert len(chain) == 0
        chain.schedule(0.01, lambda: None)
        chain.schedule(0.02, lambda: None)
        assert len(chain) == 2
        sim.run()
        assert len(chain) == 0
        assert chain.armed is False

    def test_stream_reusable_after_drain(self, sim):
        chain = sim.make_chain()
        fired = []
        chain.schedule(0.01, fired.append, 1)
        sim.run()
        chain.schedule(0.01, fired.append, 2)
        sim.run()
        assert fired == [1, 2]
        assert chain.appended == 2


class TestLinkUsesChains:
    def test_fast_kernel_link_batches_and_legacy_does_not(self):
        from repro.netsim.frame import Frame
        from repro.netsim.link import Link
        from repro.sim.rng import RngStreams

        sim = Simulator()
        got = []
        link = Link(sim, RngStreams(0), "t", bandwidth_bps=8e6,
                    delay=0.001, queue_limit=16, deliver=got.append)
        frames = [Frame("A", "B", 500) for _ in range(6)]
        for frame in frames:
            link.send(frame)
        sim.run()
        assert link._tx_chain.appended == 6
        assert link._rx_chain.appended == 6
        # batching is invisible to everything the simulation observes:
        # FIFO delivery, last arrival = six serializations + one delay
        assert [f.id for f in got] == [f.id for f in frames]
        assert sim.now == pytest.approx(6 * 500 * 8 / 8e6 + 0.001)
