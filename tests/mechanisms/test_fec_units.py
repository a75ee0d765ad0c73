"""Unit tests for the FEC mechanisms' grouping/reconstruction machinery,
exercised against live sessions with surgically dropped DATA frames."""


from repro.tko.config import SessionConfig
from repro.tko.pdu import PduType
from tests.conftest import TwoHosts


def fec_cfg(recovery="fec-xor", k=4, r=1, **kw):
    return SessionConfig(
        connection="implicit", transmission="rate", rate_pps=500.0,
        ack="none", recovery=recovery, fec_k=k, fec_r=r,
        sequencing="none", segment_size=500, **kw,
    )


def drop_frames(w, lost):
    """Black-hole every frame ``lost(pdu)`` is true for as it enters the
    network.  ``Network.send`` is where both send routes hand a frame over
    (``Host.transmit`` is not: the rendered send closure inlines it), and
    both read it no earlier than the first send — call this before that."""
    original = w.net.send

    def filtered(frame):
        if not lost(frame.payload):
            original(frame)

    w.net.send = filtered


def drop_data_seqs(w, seqs):
    """Black-hole specific DATA sequence numbers."""
    drop_frames(w, lambda pdu: pdu.ptype is PduType.DATA and pdu.seq in seqs)


class TestXorGroups:
    def test_parity_every_k_data_pdus(self):
        w = TwoHosts()
        w.listen(fec_cfg())
        s = w.open(fec_cfg())
        for _ in range(8):  # exactly two full groups
            s.send(b"p" * 400)
        w.sim.run(until=2.0)
        assert s.stats.parity_sent == 2
        assert len(w.delivered) == 8

    def test_single_loss_in_group_recovered(self):
        w = TwoHosts()
        w.listen(fec_cfg())
        s = w.open(fec_cfg())
        drop_data_seqs(w, {1})
        payloads = [bytes([i]) * 400 for i in range(4)]
        for p in payloads:
            s.send(p)
        w.sim.run(until=3.0)
        assert len(w.delivered) == 4
        rx = w.rx_sessions[0]
        assert rx.stats.fec_recoveries == 1
        # the reconstructed payload is byte-exact
        assert sorted(d for d, _ in w.delivered) == sorted(payloads)

    def test_two_losses_exceed_xor(self):
        w = TwoHosts()
        w.listen(fec_cfg())
        s = w.open(fec_cfg())
        drop_data_seqs(w, {1, 2})
        for i in range(4):
            s.send(bytes([i]) * 400)
        w.sim.run(until=3.0)
        assert len(w.delivered) == 2
        assert w.rx_sessions[0].stats.fec_recoveries == 0

    def test_reconstructed_metadata_flag(self):
        w = TwoHosts()
        w.listen(fec_cfg())
        s = w.open(fec_cfg())
        drop_data_seqs(w, {2})
        for i in range(4):
            s.send(bytes([i]) * 400)
        w.sim.run(until=3.0)
        flags = [m["reconstructed"] for _, m in w.delivered]
        assert flags.count(True) == 1


class TestRsGroups:
    def test_two_losses_recovered_with_r2(self):
        cfg = fec_cfg(recovery="fec-rs", k=4, r=2)
        w = TwoHosts()
        w.listen(cfg)
        s = w.open(cfg)
        drop_data_seqs(w, {0, 3})
        payloads = [bytes([50 + i]) * 400 for i in range(4)]
        for p in payloads:
            s.send(p)
        w.sim.run(until=3.0)
        assert len(w.delivered) == 4
        assert w.rx_sessions[0].stats.fec_recoveries == 2
        assert sorted(d for d, _ in w.delivered) == sorted(payloads)

    def test_parity_loss_tolerated(self):
        cfg = fec_cfg(recovery="fec-rs", k=4, r=2)
        w = TwoHosts()
        w.listen(cfg)
        s = w.open(cfg)
        # drop one data PDU and one parity PDU: still recoverable (4 of 6)
        dropped = set()

        def first_data_1_and_first_parity(pdu):
            wanted = pdu.ptype is PduType.PARITY or (
                pdu.ptype is PduType.DATA and pdu.seq == 1)
            if not wanted or pdu.ptype in dropped:
                return False
            dropped.add(pdu.ptype)
            return True

        drop_frames(w, first_data_1_and_first_parity)
        for i in range(4):
            s.send(bytes([i]) * 400)
        w.sim.run(until=3.0)
        assert dropped == {PduType.DATA, PduType.PARITY}
        assert len(w.delivered) == 4

    def test_variable_size_payloads_roundtrip(self):
        cfg = fec_cfg(recovery="fec-rs", k=3, r=1)
        w = TwoHosts()
        w.listen(cfg)
        s = w.open(cfg)
        drop_data_seqs(w, {1})
        payloads = [b"a" * 100, b"bb" * 150, b"c" * 37]
        for p in payloads:
            s.send(p)
        w.sim.run(until=3.0)
        assert sorted(d for d, _ in w.delivered) == sorted(payloads)


class TestGroupLifecycle:
    def test_flush_emits_partial_group_parity(self):
        w = TwoHosts()
        w.listen(fec_cfg(k=8))
        s = w.open(fec_cfg(k=8))
        for i in range(3):
            s.send(bytes([i]) * 300)
        w.sim.run(until=1.0)
        assert s.stats.parity_sent == 0
        s.close()
        w.sim.run(until=3.0)
        assert s.stats.parity_sent == 1

    def test_flushed_partial_group_still_repairs(self):
        w = TwoHosts()
        w.listen(fec_cfg(k=8))
        s = w.open(fec_cfg(k=8))
        drop_data_seqs(w, {1})
        payloads = [bytes([i]) * 300 for i in range(3)]
        for p in payloads:
            s.send(p)
        s.close()
        w.sim.run(until=3.0)
        assert sorted(d for d, _ in w.delivered) == sorted(payloads)

    def test_receiver_group_horizon_purges(self):
        from repro.mechanisms.fec import GROUP_HORIZON

        w = TwoHosts()
        cfg = fec_cfg(k=2)
        w.listen(cfg)
        s = w.open(cfg)
        n_groups = GROUP_HORIZON + 10
        for i in range(2 * n_groups):
            s.send(bytes([i % 256]) * 200)
        w.sim.run(until=10.0)
        rx = w.rx_sessions[0]
        assert len(rx.context.recovery._rx) <= GROUP_HORIZON
        assert len(w.delivered) == 2 * n_groups
