"""Unit tests for shared session state: RTT, receive window, reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tko.pdu import PDU, PduType
from repro.tko.state import (
    Reassembler,
    ReceiveWindow,
    RttEstimator,
    SenderState,
    SessionStats,
)


def data(seq, msg_id=0, frag_index=0, frag_count=1):
    return PDU(PduType.DATA, 1, seq=seq, msg_id=msg_id,
               frag_index=frag_index, frag_count=frag_count)


class TestSenderState:
    def test_next_seq_monotone(self):
        s = SenderState()
        assert [s.next_seq() for _ in range(3)] == [0, 1, 2]

    def test_release_advances_una(self):
        from repro.tko.state import SendEntry

        s = SenderState()
        for i in range(3):
            s.track(SendEntry(data(s.next_seq()), 0.0, 0.0))
        s.release(0)
        assert s.snd_una == 1
        s.release(2)
        assert s.snd_una == 1  # 1 still outstanding
        s.release(1)
        assert s.snd_una == 3

    def test_release_unknown_returns_none(self):
        assert SenderState().release(9) is None


class TestRttEstimator:
    def test_first_sample_initialises(self):
        r = RttEstimator()
        r.update(0.1)
        assert r.srtt == pytest.approx(0.1)
        assert r.rto >= 0.1

    def test_smoothing_converges(self):
        r = RttEstimator(rto_min=0.02)
        for _ in range(100):
            r.update(0.05)
        assert r.srtt == pytest.approx(0.05, rel=0.01)
        # converged: srtt + granularity floor G, well under the initial RTO
        assert r.rto == pytest.approx(0.05 + r.G, rel=0.05)

    def test_progress_resets_backoff(self):
        r = RttEstimator()
        r.update(0.05)
        base = r.rto
        r.backoff()
        r.backoff()
        r.note_progress()
        assert r.rto == pytest.approx(base)

    def test_backoff_doubles(self):
        r = RttEstimator(rto_initial=0.5)
        base = r.rto
        r.backoff()
        assert r.rto == pytest.approx(min(60.0, base * 2))

    def test_sample_resets_backoff(self):
        r = RttEstimator()
        r.update(0.05)
        before = r.rto
        r.backoff()
        r.update(0.05)
        assert r.rto == pytest.approx(before, rel=0.3)

    def test_rto_respects_min(self):
        r = RttEstimator(rto_min=0.2)
        for _ in range(50):
            r.update(0.001)
        assert r.rto >= 0.2

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().update(-0.1)


class TestReceiveWindowOrdered:
    def test_in_order_delivers(self):
        w = ReceiveWindow()
        out, ok, gap = w.accept(data(0), True, True, True)
        assert [p.seq for p in out] == [0] and ok and not gap
        assert w.rcv_nxt == 1

    def test_out_of_order_buffered_then_released(self):
        w = ReceiveWindow()
        out, ok, gap = w.accept(data(1), True, True, True)
        assert out == [] and ok and gap
        out, ok, gap = w.accept(data(0), True, True, True)
        assert [p.seq for p in out] == [0, 1]
        assert w.rcv_nxt == 2

    def test_duplicate_dropped_with_dedup(self):
        w = ReceiveWindow()
        w.accept(data(0), True, True, True)
        out, ok, gap = w.accept(data(0), True, True, True)
        assert out == [] and not ok
        assert w.duplicates == 1

    def test_duplicate_of_buffered_dropped(self):
        w = ReceiveWindow()
        w.accept(data(2), True, True, True)
        out, ok, _ = w.accept(data(2), True, True, True)
        assert not ok

    def test_gbn_mode_discards_ooo(self):
        w = ReceiveWindow()
        out, ok, gap = w.accept(data(3), False, True, True)
        assert out == [] and not ok and gap
        assert w.discarded_ooo == 1
        assert w.rcv_nxt == 0

    def test_skip_gap_jumps(self):
        w = ReceiveWindow()
        w.accept(data(2), True, True, True)
        w.accept(data(3), True, True, True)
        released = w.skip_gap()
        assert [p.seq for p in released] == [2, 3]
        assert w.rcv_nxt == 4

    def test_skip_gap_empty_noop(self):
        assert ReceiveWindow().skip_gap() == []


class TestReceiveWindowUnordered:
    def test_ooo_delivered_immediately(self):
        w = ReceiveWindow()
        out, ok, gap = w.accept(data(5), True, False, False)
        assert [p.seq for p in out] == [5] and ok and gap

    def test_no_redelivery_when_prefix_fills(self):
        w = ReceiveWindow()
        out1, _, _ = w.accept(data(1), True, False, False)
        out0, _, _ = w.accept(data(0), True, False, False)
        assert [p.seq for p in out1] == [1]
        assert [p.seq for p in out0] == [0]  # seq 1 not delivered twice
        assert w.rcv_nxt == 2

    def test_duplicate_tolerated_without_dedup(self):
        w = ReceiveWindow()
        w.accept(data(0), True, False, False)
        out, ok, _ = w.accept(data(0), True, False, False)
        assert ok and [p.seq for p in out] == [0]
        assert w.duplicates == 1


class TestReassembler:
    def test_single_fragment_passthrough(self):
        r = Reassembler()
        p = data(0)
        assert r.add(p) == [p]

    def test_multi_fragment_completion(self):
        r = Reassembler()
        assert r.add(data(0, msg_id=1, frag_index=0, frag_count=3)) is None
        assert r.add(data(1, msg_id=1, frag_index=1, frag_count=3)) is None
        done = r.add(data(2, msg_id=1, frag_index=2, frag_count=3))
        assert [p.frag_index for p in done] == [0, 1, 2]
        assert r.partial_count == 0

    def test_out_of_order_fragments(self):
        r = Reassembler()
        r.add(data(1, msg_id=2, frag_index=1, frag_count=2))
        done = r.add(data(0, msg_id=2, frag_index=0, frag_count=2))
        assert [p.frag_index for p in done] == [0, 1]

    def test_interleaved_messages(self):
        r = Reassembler()
        r.add(data(0, msg_id=1, frag_index=0, frag_count=2))
        r.add(data(2, msg_id=2, frag_index=0, frag_count=2))
        assert r.partial_count == 2
        assert r.add(data(3, msg_id=2, frag_index=1, frag_count=2)) is not None
        assert r.add(data(1, msg_id=1, frag_index=1, frag_count=2)) is not None

    def test_duplicate_of_a_parked_fragment_displaces_and_retires_it(self):
        # media_fault's last dropped shell: a retransmission (unpooled clone)
        # of fragment 0 arrived while the pooled original was parked
        from repro.tko.pdu import PDU_POOL, PduType

        r = Reassembler()
        original = PDU_POOL.acquire(PduType.DATA, conn_id=5)
        original.seq, original.msg_id, original.frag_count = 1100, 7, 2
        recycled0 = PDU_POOL.recycled
        assert r.add(original) is None
        assert r.add(original) is None and PDU_POOL.recycled == recycled0
        clone = data(1100, msg_id=7, frag_index=0, frag_count=2)
        assert r.add(clone) is None
        assert PDU_POOL.recycled == recycled0 + 1
        done = r.add(data(1101, msg_id=7, frag_index=1, frag_count=2))
        assert done[0] is clone

    def test_drain_hands_back_every_parked_fragment(self):
        r = Reassembler()
        parked = [data(0, msg_id=1, frag_index=0, frag_count=3),
                  data(1, msg_id=1, frag_index=1, frag_count=3),
                  data(5, msg_id=2, frag_index=1, frag_count=2)]
        for pdu in parked:
            r.add(pdu)
        assert sorted(r.drain(), key=id) == sorted(parked, key=id)
        assert r.partial_count == 0 and r.drain() == []


class TestSessionStats:
    def test_latency_accounting(self):
        s = SessionStats()
        for v in (0.1, 0.2, 0.3):
            s.record_latency(v)
        assert s.mean_latency == pytest.approx(0.2)
        assert s.latency_max == 0.3
        assert s.jitter == pytest.approx(0.0816, rel=0.01)

    def test_jitter_zero_for_single_sample(self):
        s = SessionStats()
        s.record_latency(0.5)
        assert s.jitter == 0.0

    def test_setup_time(self):
        s = SessionStats()
        assert s.connection_setup_time is None
        s.opened_at, s.established_at = 1.0, 1.5
        assert s.connection_setup_time == pytest.approx(0.5)


# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(order=st.permutations(list(range(12))))
def test_ordered_window_delivers_in_sequence_any_arrival_order(order):
    w = ReceiveWindow()
    delivered = []
    for seq in order:
        out, _, _ = w.accept(data(seq), True, True, True)
        delivered.extend(p.seq for p in out)
    assert delivered == list(range(12))


@settings(max_examples=50, deadline=None)
@given(
    arrivals=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40)
)
def test_dedup_window_never_delivers_twice(arrivals):
    w = ReceiveWindow()
    delivered = []
    for seq in arrivals:
        out, _, _ = w.accept(data(seq), True, True, True)
        delivered.extend(p.seq for p in out)
    assert len(delivered) == len(set(delivered))
