"""Property: the one-event hop computes what the three-event hop visited.

Hypothesis draws a *program* for a two-link path ``A -> S -> B`` through
one switching node: frames of drawn size and priority injected at drawn
instants (bursts included), a standing BER on both links, and ``fail`` /
``restore`` / ``set_ber`` / ``set_bandwidth`` / ``set_queue_limit`` (plus
``Network.fail_link`` / ``restore_link``, which also move the route) at
drawn instants — which land while a frame waits, while it serializes and
while it propagates, because every duration in the world is a few grid
ticks long.  The program runs twice: over ``repro.netsim.link.Link`` and
over the oracle of ``tests/oracles/reference_link.py``, which spends an
event on every instant the shipped link only computes.

Equal, bit for bit: the ``(frame, delivery time, corrupted)`` sequence at
the sink; at quiesce every ``LinkStats`` field, ``queue_len``, the
switch's counters, the number of payloads released and the final state of
each link's random stream; and at every sampled instant the fields that
change *when the parent changed them* — ``queue_len``, ``enqueued``,
``dropped_overflow``, ``dropped_mtu``, ``busy_time`` (what
``mantts/monitor.py`` samples mid-run).  ``delivered``, ``corrupted`` and
``dropped_down`` commit when a frame lands, one propagation-plus-switching
later than the oracle commits them, so they are compared at quiesce only.

A program in which the oracle has one of its own events (``_tx_done``) at
the same link and instant as anything else there — a send, a fault, a
sample — is discarded: the parent broke that tie by ``seq``, the shipped
link by the rule :class:`TestTieRule` pins.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.netsim.frame import Frame
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from tests.oracles.reference_link import ReferenceLink, use_reference_links

#: binary-exact grid for program instants; at 8 Mb/s a 1,000 B frame
#: serializes in 16.4 ticks, and the delays below are 0–33 ticks
TICK = 1.0 / 16384.0
HOPS = (("A", "S"), ("S", "B"))
EAGER_FIELDS = ("enqueued", "dropped_overflow", "dropped_mtu", "busy_time")

_hop = st.sampled_from(HOPS)
_size = st.one_of(st.integers(40, 1500), st.sampled_from((64, 1500, 1600)))
_op = st.one_of(
    st.tuples(st.just("send"), _size, st.integers(0, 3)),
    st.tuples(st.just("send"), _size, st.integers(0, 3)),
    st.tuples(st.just("burst"), st.integers(2, 6), _size, st.integers(0, 3)),
    st.tuples(st.just("fail"), _hop),
    st.tuples(st.just("restore"), _hop),
    st.tuples(st.just("net_fail"), _hop),
    st.tuples(st.just("net_restore"), _hop),
    st.tuples(st.just("set_ber"), _hop, st.sampled_from((0.0, 1e-5, 3e-4))),
    st.tuples(st.just("set_bandwidth"), _hop, st.sampled_from((2e6, 8e6, 1e8))),
    st.tuples(st.just("set_queue_limit"), _hop, st.sampled_from((1, 2, 5))),
    st.tuples(st.just("sample")),
)
_program = st.lists(st.tuples(st.integers(0, 400), _op), max_size=40)
_link = st.fixed_dictionaries({
    "bandwidth_bps": st.sampled_from((4e6, 8e6, 1e8)),
    "delay": st.sampled_from((0.0, 3e-4, 1e-3, 2e-3)),
    "ber": st.sampled_from((1e-6, 1e-5, 1e-4)),
    "queue_limit": st.sampled_from((1, 3, 64)),
})


class Payload:
    """Stands in for a pooled PDU: counts the wire references given up."""

    def __init__(self, world, index):
        self.world, self.index = world, index

    def release(self):
        self.world.released += 1


class World:
    def __init__(self, kind, seed, switch_latency, links):
        self.sim = sim = Simulator()
        self.net = net = Network(sim, RngStreams(seed))
        for name in "ASB":
            net.add_node(name, switch_latency=switch_latency)
        for (u, v), params in zip(HOPS, links):
            net.add_link(u, v, bidirectional=False, **params)
        self.calls = []  # (link, instant, what) at each link, oracle only
        if kind == "reference":
            use_reference_links(net)
            for link in net.links.values():
                self._watch(link)
        self.links = [net.links[hop] for hop in HOPS]
        assert all(type(l) is (ReferenceLink if kind == "reference" else Link)
                   for l in self.links)
        self.delivered, self.samples = [], []
        self.released = self.sent = 0
        net.attach_host("B", lambda f: self.delivered.append(
            (f.payload.index, sim.now, f.corrupted, f.hops)))

    def _watch(self, link):
        for name in ("send", "_tx_done", "fail", "restore", "set_ber",
                     "set_bandwidth", "set_queue_limit"):
            def probe(*args, _inner=getattr(link, name), _name=name):
                self.calls.append((link.name, self.sim.now, _name))
                return _inner(*args)
            setattr(link, name, probe)

    # -- program ops ---------------------------------------------------
    def send(self, size, priority):
        frame = Frame("A", "B", size, priority=priority,
                      payload=Payload(self, self.sent))
        self.sent += 1
        self.net.send(frame)

    def burst(self, count, size, priority):
        for _ in range(count):
            self.send(size, priority)

    def sample(self):
        for link in self.links:
            self.calls.append((link.name, self.sim.now, "sample"))
        self.samples.append((self.sim.now, [
            (l.queue_len, *(getattr(l.stats, f) for f in EAGER_FIELDS))
            for l in self.links]))

    def net_fail(self, hop):
        self.net.fail_link(*hop, bidirectional=False)

    def net_restore(self, hop):
        self.net.restore_link(*hop, bidirectional=False)

    def run(self, program):
        for tick, (name, *args) in program:
            op = getattr(self, name, None)
            if op is None:  # a Link method, by hop
                op, args = getattr(self.net.links[args[0]], name), args[1:]
            self.sim.schedule_at(tick * TICK, op, *args)
        self.sim.run()
        return self

    def oracle_had_a_tie(self):
        """One of the oracle's own events shared a link and an instant."""
        calls = Counter((link, t) for link, t, _name in self.calls)
        return any(calls[link, t] > 1
                   for link, t, name in self.calls if name == "_tx_done")

    def outcome(self):
        rng = self.net.rng
        return {
            "delivered": self.delivered,
            "samples": self.samples,
            "stats": [l.stats for l in self.links],
            "queue_len": [l.queue_len for l in self.links],
            "switch": self.net.nodes["S"].stats,
            "released": self.released,
            "rng": [rng.stream(f"link:{l.name}").bit_generator.state
                    for l in self.links],
        }


@settings(deadline=None)
@given(program=_program, seed=st.integers(0, 50),
       switch_latency=st.sampled_from((0.0, 5e-6, 1e-4)),
       links=st.tuples(_link, _link))
def test_one_event_hop_equals_three_event_hop(program, seed, switch_latency,
                                              links):
    program = sorted(program, key=lambda step: step[0])
    oracle = World("reference", seed, switch_latency, links).run(program)
    assume(not oracle.oracle_had_a_tie())
    shipped = World("shipped", seed, switch_latency, links).run(program)
    want, got = oracle.outcome(), shipped.outcome()
    for key in want:
        assert got[key] == want[key], key
    # the books close: every frame was delivered or gave up its payload
    assert len(got["delivered"]) + got["released"] == shipped.sent
    assert got["queue_len"] == [0, 0]
    # nothing is retained for frames that have all landed
    assert all(not l._draining for l in shipped.links)


def test_the_property_reaches_the_hard_cases():
    """The strategy's world is dense enough: one fixed program has frames
    waiting, a fault during serialization and one during propagation."""
    links = ({"bandwidth_bps": 8e6, "delay": 2e-3, "ber": 1e-4,
              "queue_limit": 3},) * 2
    # 1,000 B serialize in 16.4 ticks and propagate for 32.8, per hop
    program = [(0, ("burst", 5, 1000, 0)),       # 0 on the wire, 3 wait, 1 lost
               (5, ("fail", HOPS[0])),           # frame 0 is serializing ...
               (8, ("restore", HOPS[0])),        # ... and the link is back by its done
               (20, ("send", 1000, 0)),          # frame 5: hop 1 done at 36.4
               (40, ("set_ber", HOPS[0], 0.0)),  # too late for frame 5's draw
               (60, ("send", 700, 2)),           # frame 6
               (70, ("fail", HOPS[1])),          # 0 propagates on hop 2; 5 serializes
               (72, ("sample",)),
               (90, ("restore", HOPS[1]))]       # after frame 5's done at 85.6
    outcomes = [World(kind, 3, 5e-6, links).run(program)
                for kind in ("reference", "shipped")]
    assert not outcomes[0].oracle_had_a_tie()
    want, got = (w.outcome() for w in outcomes)
    assert got == want
    first, second = got["stats"]
    assert (first.dropped_overflow, first.dropped_down) == (1, 3)
    assert first.corrupted == 2  # frames 0 and 5, both drawn at BER 1e-4
    assert second.dropped_down == 1
    assert [index for index, *_ in got["delivered"]] == [0, 6]


class TestTieRule:
    """At one instant the wire frees before a frame arrives.

    The parent left a send at exactly ``_busy_until`` to ``seq``; the lazy
    link decides it: ``_drain`` runs at priority -1, so the waiter is
    already on the wire when the newcomer is admitted.  Each test schedules
    the newcomer's send *first*, so ``seq`` alone would run it before the
    drain.
    """

    SER = 1500 * 8 / 8e6  # the first frame frees the wire at exactly SER

    def _link(self, sim, newcomer=None, **kw):
        got = []
        kw.setdefault("queue_limit", 4)
        link = Link(sim, RngStreams(0), "t", bandwidth_bps=8e6, delay=1e-3,
                    deliver=lambda f: got.append((f.id, sim.now)), **kw)
        if newcomer is not None:
            sim.schedule_at(self.SER, link.send, newcomer)
        return link, got

    def test_no_waiter_newcomer_takes_the_free_wire(self, sim):
        late = Frame("A", "B", 1500)
        link, got = self._link(sim, late)
        link.send(Frame("A", "B", 1500))
        sim.run(until=self.SER)
        # on the wire, not in the queue, and no drain was needed for it
        assert link.queue_len == 0 and not link._draining
        assert link._busy_until == self.SER + self.SER
        assert sim.events_dispatched == 1
        sim.run()
        assert got[-1] == (late.id, (self.SER + self.SER) + 1e-3)

    def test_waiter_goes_first_and_newcomer_queues_behind_it(self, sim):
        first, waiter, late = (Frame("A", "B", 1500) for _ in range(3))
        link, got = self._link(sim, late)
        link.send(first)
        link.send(waiter)
        sim.run(until=self.SER)
        assert link.queue_len == 1  # the waiter left the queue first
        sim.run()
        assert [fid for fid, _ in got] == [first.id, waiter.id, late.id]

    def test_at_queue_limit_the_freed_slot_admits_the_newcomer(self, sim):
        first, waiter, late = (Frame("A", "B", 1500) for _ in range(3))
        link, got = self._link(sim, late, queue_limit=1)
        link.send(first)
        link.send(waiter)
        assert link.send(Frame("A", "B", 1500)) is False  # queue is full now
        sim.run()
        assert link.stats.dropped_overflow == 1
        assert [fid for fid, _ in got] == [first.id, waiter.id, late.id]

    def test_the_rule_holds_for_a_drain_armed_by_a_drain(self, sim):
        frames = [Frame("A", "B", 1500) for _ in range(5)]
        first, w1, w2, late, later = frames
        link, got = self._link(sim, late, queue_limit=2)
        sim.schedule_at(self.SER + self.SER, link.send, later)
        for frame in (first, w1, w2):
            link.send(frame)  # the queue is full; w1's drain re-arms for w2
        sim.run()
        assert link.stats.dropped_overflow == 0
        assert [fid for fid, _ in got] == [f.id for f in frames]

    def test_higher_priority_newcomer_does_not_overtake_the_waiter(self, sim):
        first, waiter = Frame("A", "B", 1500), Frame("A", "B", 1500, priority=2)
        urgent = Frame("A", "B", 1500, priority=0)
        link, got = self._link(sim, urgent)
        link.send(first)
        link.send(waiter)
        sim.run()
        assert [fid for fid, _ in got] == [first.id, waiter.id, urgent.id]

    def test_fault_at_the_instant_a_frame_leaves_the_wire_spares_it(self, sim):
        # same rule, read through the change log: the frame was already
        # past ``done`` when the link failed, so it arrives
        frame = Frame("A", "B", 1500)
        link, got = self._link(sim)
        link.send(frame)
        sim.schedule_at(self.SER, link.fail)
        sim.run()
        assert [fid for fid, _ in got] == [frame.id]
        assert link.stats.dropped_down == 0
