"""A session that closes with received PDUs still in hand gives them all up.

The receive side holds wire references in four places a close can
strand: a frame waiting for the host CPU (``_process`` fires after the
close), a delivery waiting for its playout point (``_deliver_app`` fires
after it), fragments the reassembler parked until their message completes,
and arrivals the reorder buffer holds for in-order release.  Each used to
drop its pooled shell — and, on a real substrate, its slab lease — on the
floor; together they were 5 of the shells ``media_fault`` "leaks".  The
fifth is at the end of this file: the opening frame of a passive open
whose ``on_session`` callback closes the session meets the executor's
first-use ``handle_frame``, which retires it as ``_process``'s exit does.

Every scenario runs with the wire codec in the middle (encode, decode into
a slab arena, as ``RealFabric`` does), so the receiver handles unpooled
PDUs whose messages hold slab leases while the sender's pooled shells
cross the simulated network: at quiesce ``PDU_POOL`` must balance *and* the
arena must hold no live lease.
"""

import pytest

from repro.host.cpu import Cpu
from repro.netsim.frame import decode_frame, encode_frame
from repro.tko.config import SessionConfig
from repro.tko.pdu import PDU, PDU_POOL, PduType
from repro.tko.slab import SlabArena
from tests.conftest import EXECUTORS, TwoHosts

UNRELIABLE = dict(connection="implicit", transmission="rate", ack="none",
                  recovery="none", rate_pps=2000.0)


class CodecWorld(TwoHosts):
    """``TwoHosts`` whose frames cross the wire codec on their way in."""

    def __init__(self, lose=lambda pdu: False):
        super().__init__(seed=3)
        self.arena = SlabArena()
        self.pool0 = (PDU_POOL.acquired, PDU_POOL.recycled)
        send = self.net.send

        def through_the_codec(frame):
            pdu = frame.payload
            if isinstance(pdu, PDU) and frame.src == "A":
                wire = None if lose(pdu) else decode_frame(
                    encode_frame(frame), arena=self.arena)
                pdu.release()  # the egress consumed the wire's reference
                if wire is None:
                    return
                frame = wire
            send(frame)

        self.net.send = through_the_codec  # before the first send binds it

    def quiesce_and_check(self, sender, pooled=True):
        if not sender.closed:
            sender.abort("test over")
        self.sim.run(until=self.sim.now + 5.0)
        acquired = PDU_POOL.acquired - self.pool0[0]
        assert (acquired > 0) == pooled and self.arena.leases_issued > 0
        assert PDU_POOL.recycled - self.pool0[1] == acquired
        assert self.arena.live_leases == 0


def abort_receiver_behind_frame(w, nth, monkeypatch):
    """Abort B's first session the moment its ``nth`` frame has been handed
    to the host CPU — closed with that frame's ``_process`` still pending."""
    submit = Cpu.submit
    queued = []

    def submit_then_abort(cpu, instructions, fn, *args):
        submit(cpu, instructions, fn, *args)
        if cpu is w.hb.cpu and fn.__name__ == "_process":
            queued.append(args[0])
            if len(queued) == nth:
                w.rx_sessions[0].abort("closed with a frame on the CPU")

    monkeypatch.setattr(Cpu, "submit", submit_then_abort)


def test_frame_waiting_for_the_cpu_when_the_session_closes(monkeypatch):
    w = CodecWorld()
    abort_receiver_behind_frame(w, 3, monkeypatch)
    sender = w.transfer(SessionConfig(**UNRELIABLE),
                        [b"m" * 900 for _ in range(6)], until=1.0)
    first = w.rx_sessions[0]
    # the third message died with the session (implicit set-up: the three
    # behind it opened a fresh one)
    assert first.closed and first.stats.msgs_delivered == 2
    assert len(w.delivered) == 5
    w.quiesce_and_check(sender)


def test_playout_delayed_delivery_pending_when_the_session_closes():
    w = CodecWorld()
    cfg = SessionConfig(jitter="playout", playout_delay=0.08, **UNRELIABLE)
    sender = w.transfer(cfg, [b"late" * 200], until=0.04)
    [rx] = w.rx_sessions
    assert rx.stats.pdus_received == 1 and not w.delivered  # parked for playout
    rx.abort("closed before the playout point")
    w.sim.run(until=0.2)
    assert not w.delivered
    w.quiesce_and_check(sender)


def test_fragment_parked_in_the_reassembler_when_the_session_closes():
    w = CodecWorld(lose=lambda pdu: pdu.frag_index == 1)
    sender = w.transfer(SessionConfig(segment_size=600, **UNRELIABLE),
                        [b"f" * 1000], until=0.5)
    [rx] = w.rx_sessions
    assert rx.reassembler.partial_count == 1 and not w.delivered
    assert w.arena.live_leases == 1  # fragment 0 of 2, waiting for ever
    rx.abort("closed with half a message")
    assert rx.reassembler is None  # drained, then retired with the session
    w.quiesce_and_check(sender)


def test_arrival_held_for_ordering_when_the_session_closes():
    lost = []

    def lose_the_second_data_pdu_once(pdu):
        if pdu.ptype is PduType.DATA and pdu.seq == 1 and not lost:
            lost.append(pdu.seq)
            return True
        return False

    w = CodecWorld(lose=lose_the_second_data_pdu_once)
    cfg = SessionConfig(connection="implicit", ack="selective", recovery="sr",
                        rto_initial=2.0)
    sender = w.transfer(cfg, [b"o" * 300 for _ in range(4)], until=0.005)
    [rx] = w.rx_sessions
    assert sorted(rx.recv_window.buffer) == [2, 3] and len(w.delivered) == 1
    rx.abort("closed with a gap")
    assert rx.recv_window is None  # emptied, then retired with the session
    w.quiesce_and_check(sender)


def lose_the_second_data_pdu(times):
    lost = []

    def lose(pdu):
        if pdu.ptype is PduType.DATA and pdu.seq == 1 and len(lost) < times:
            lost.append(pdu.seq)
            return True
        return False

    return lose


def close_from_the_second_delivery(w, cfg, how):
    """B's application closes its session from inside ``on_deliver``, on the
    second message it is handed: teardown runs synchronously under whichever
    executor frame was releasing PDUs, and that frame still has some."""

    def on_session(s):
        def on_deliver(data, meta):
            w.delivered.append((data, meta))
            if len(w.delivered) == 2:
                how(s)
                assert s.closed

        if not w.rx_sessions:  # a straggler may open another; it stays mute
            s.on_deliver = on_deliver
        w.rx_sessions.append(s)

    w.pb.listen(7000, lambda pdu, frame: cfg, on_session)


CLOSES = [lambda s: s.abort("the application had enough"), lambda s: s.close()]


@pytest.mark.parametrize("how", CLOSES, ids=["abort", "close"])
@pytest.mark.parametrize("kind", EXECUTORS)
def test_closed_from_on_deliver_while_a_filled_gap_is_released(
        executors, kind, how):
    """The retransmission of seq 1 releases 1, 2 and 3 in one loop; the
    callback closes the session on 1, and 2 and 3 are retired, not handed
    to a session that is gone."""
    with executors(kind):
        w = CodecWorld(lose=lose_the_second_data_pdu(1))
        cfg = SessionConfig(connection="implicit", ack="selective",
                            recovery="sr", rto_initial=0.2)
        close_from_the_second_delivery(w, cfg, how)
        sender = w.open(cfg)
        for _ in range(4):
            sender.send(b"o" * 300)
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        assert rx.closed and rx.stats.msgs_delivered == 2
        assert len(w.delivered) == 2
        w.quiesce_and_check(sender, pooled=kind == "shipped")


@pytest.mark.parametrize("how", CLOSES, ids=["abort", "close"])
@pytest.mark.parametrize("kind", EXECUTORS)
def test_closed_from_on_deliver_while_a_skipped_gap_is_released(
        executors, kind, how):
    """Nothing retransmits seq 1: the gap timer skips it and releases 2 and
    3; the callback closes the session on 2, and the timer's frame neither
    delivers 3 nor re-arms on a receive window that is gone."""
    with executors(kind):
        w = CodecWorld(lose=lose_the_second_data_pdu(1))
        cfg = SessionConfig(sequencing="ordered", gap_timeout=0.05, **UNRELIABLE)
        close_from_the_second_delivery(w, cfg, how)
        sender = w.open(cfg)
        for _ in range(4):
            sender.send(b"g" * 300)
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        assert rx.closed and rx.stats.gap_skips == 1
        assert rx.stats.msgs_delivered == 2 and len(w.delivered) == 2
        w.quiesce_and_check(sender, pooled=kind == "shipped")


@pytest.mark.parametrize("kind", EXECUTORS)
def test_closed_from_on_deliver_while_a_repaired_group_is_handed_over(
        executors, kind):
    """Two shards of a Reed-Solomon group are lost; the second parity PDU
    rebuilds both in one loop, the callback closes the session on the first
    and the second is discarded unseen (FEC senders never pool: the books
    are the arena's)."""
    with executors(kind):
        w = CodecWorld(lose=lambda pdu: pdu.ptype is PduType.DATA
                       and pdu.seq in (1, 2))
        cfg = SessionConfig(**{**UNRELIABLE, "recovery": "fec-rs"}, fec_k=4,
                            fec_r=2, sequencing="ordered")
        close_from_the_second_delivery(w, cfg, CLOSES[0])
        sender = w.open(cfg)
        for _ in range(4):
            sender.send(b"p" * 300)
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        assert rx.closed and rx.stats.msgs_delivered == 2
        assert len(w.delivered) == 2 and w.delivered[1][1]["reconstructed"]
        w.quiesce_and_check(sender, pooled=False)


def refused_passive_open():
    """B's listener closes every session it is offered: ``_accept`` hands the
    opening DATA PDU to a session ``on_session`` has already closed — the one
    way the rendered ``handle_frame`` meets ``s._closed`` (a demuxed frame
    finds no closed session: ``session_closed`` unbound it)."""
    w = CodecWorld()
    cfg = SessionConfig(**UNRELIABLE)
    refused = []
    w.pb.listen(7000, lambda pdu, frame: cfg,
                lambda s: (s.close(), refused.append(s)))
    sender = w.open(cfg)
    sender.send(b"r" * 900)
    w.sim.run(until=1.0)
    return w, sender, refused


def test_opening_frame_of_a_refused_passive_open_is_not_processed():
    w, _, [rx] = refused_passive_open()
    assert rx.closed and not w.pb.sessions
    assert rx.stats.pdus_received == 0 and rx.stats.msgs_delivered == 0


def test_opening_frame_of_a_refused_passive_open_is_retired():
    w, sender, _ = refused_passive_open()
    w.quiesce_and_check(sender)


def test_the_oracle_retires_a_frame_processed_after_close(executors,
                                                          monkeypatch):
    """``ReferenceExecutor`` carries its own ``_process``; same exit."""
    with executors("oracle"):
        w = CodecWorld()
        abort_receiver_behind_frame(w, 1, monkeypatch)
        sender = w.transfer(SessionConfig(**UNRELIABLE), [b"m" * 900], until=1.0)
        assert not w.delivered
        # the oracle never pools, so the books to check are the arena's
        assert w.arena.leases_issued == 1 and w.arena.live_leases == 0
        sender.abort("test over")
