"""A session that closes with received PDUs still in hand gives them all up.

The receive side holds wire references in four places a close can
strand: a frame waiting for the host CPU (``_process`` fires after the
close), a delivery waiting for its playout point (``_deliver_app`` fires
after it), fragments the reassembler parked until their message completes,
and arrivals the reorder buffer holds for in-order release.  Each used to
drop its pooled shell — and, on a real substrate, its slab lease — on the
floor; together they were 5 of the shells ``media_fault`` "leaks".  A
fifth is still open and pinned at the end of this file: the opening frame
of a passive open whose ``on_session`` callback closes the session.

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
from tests.conftest import TwoHosts

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

    def quiesce_and_check(self, sender):
        if not sender.closed:
            sender.abort("test over")
        self.sim.run(until=self.sim.now + 5.0)
        acquired = PDU_POOL.acquired - self.pool0[0]
        assert acquired > 0 and self.arena.leases_issued > 0
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
    assert rx.reassembler.partial_count == 0
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
    assert not rx.recv_window.buffer
    w.quiesce_and_check(sender)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the rendered "
                   "handle_frame's closed-session exit returns without "
                   "discard(), stranding the opening PDU's wire reference")
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
