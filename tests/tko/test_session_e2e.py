"""End-to-end session tests over the simulated network.

These exercise full configurations through real topologies: connection
establishment styles, fragmentation, reliability under loss, FEC repair,
flow control, implicit piggyback setup, and close semantics.
"""

import pytest

from repro.netsim.profiles import ethernet_10
from repro.tko.config import SessionConfig
from tests.conftest import EXECUTORS, TwoHosts


class TestEstablishment:
    @pytest.mark.parametrize("conn", ["implicit", "explicit-2way", "explicit-3way"])
    def test_delivery_under_each_connection_style(self, conn):
        w = TwoHosts()
        s = w.transfer(SessionConfig(connection=conn), [b"hello"] * 3, until=3.0)
        assert len(w.delivered) == 3
        assert s.stats.established_at is not None

    def test_implicit_has_zero_setup_rtt(self):
        w = TwoHosts()
        s = w.transfer(SessionConfig(connection="implicit"), [b"x"], until=1.0)
        assert s.stats.connection_setup_time == 0.0

    def test_explicit_3way_costs_more_than_2way(self):
        t = {}
        for conn in ("explicit-2way", "explicit-3way"):
            w = TwoHosts()
            s = w.transfer(SessionConfig(connection=conn), [b"x"], until=2.0)
            t[conn] = s.stats.connection_setup_time
        assert t["explicit-2way"] > 0
        # 2-way client connects on SYN-ACK; both are one round trip at the
        # initiator, so allow equality but never inversion
        assert t["explicit-3way"] >= t["explicit-2way"]

    def test_open_failure_when_no_listener(self):
        w = TwoHosts()
        failures = []
        s = w.pa.create_session(
            SessionConfig(connection="explicit-2way"),
            "B",
            9999,
            on_ended=failures.append,
        )
        s.connect()
        w.sim.run(until=60.0)
        assert failures and "timeout" in failures[0]


class TestDataTransfer:
    def test_payload_integrity(self):
        w = TwoHosts()
        payloads = [bytes([i]) * (100 + i) for i in range(10)]
        w.transfer(SessionConfig(), payloads, until=5.0)
        assert [d for d, _ in w.delivered] == payloads

    def test_fragmentation_and_reassembly(self):
        w = TwoHosts()
        big = bytes(range(256)) * 40  # 10240 B >> MTU 1500
        s = w.transfer(SessionConfig(), [big], until=5.0)
        assert len(w.delivered) == 1
        assert w.delivered[0][0] == big
        assert s.stats.pdus_sent > 7  # really was fragmented

    def test_empty_message_allowed(self):
        w = TwoHosts()
        w.transfer(SessionConfig(), [b""], until=2.0)
        assert len(w.delivered) == 1
        assert w.delivered[0][0] == b""

    def test_send_on_closed_session_raises(self):
        w = TwoHosts()
        s = w.transfer(SessionConfig(), [b"x"], until=2.0)
        s.close()
        w.sim.run(until=4.0)
        with pytest.raises(RuntimeError):
            s.send(b"nope")

    def test_ordered_delivery_metadata(self):
        w = TwoHosts()
        w.transfer(SessionConfig(), [b"a", b"b"], until=2.0)
        metas = [m for _, m in w.delivered]
        assert all(m["latency"] > 0 for m in metas)
        assert metas[0]["msg_id"] != metas[1]["msg_id"]


class TestReliabilityUnderLoss:
    def _lossy_world(self):
        # copper-grade BER high enough to corrupt several frames
        return TwoHosts(profile=ethernet_10().scaled(ber=3e-6))

    def test_gbn_delivers_everything(self):
        w = self._lossy_world()
        msgs = [b"m" * 1000] * 40
        s = w.transfer(SessionConfig(recovery="gbn", ack="cumulative"), msgs, until=30.0)
        assert len(w.delivered) == 40
        assert s.stats.retransmissions > 0

    def test_sr_delivers_everything_with_fewer_retransmissions(self):
        results = {}
        for name, cfg in [
            ("gbn", SessionConfig(recovery="gbn", ack="cumulative")),
            ("sr", SessionConfig(recovery="sr", ack="selective")),
        ]:
            w = self._lossy_world()
            s = w.transfer(cfg, [b"m" * 1000] * 40, until=30.0)
            assert len(w.delivered) == 40
            results[name] = s.stats.retransmissions
        assert results["sr"] <= results["gbn"]

    def test_no_recovery_loses_messages(self):
        w = TwoHosts(profile=ethernet_10().scaled(ber=2e-5))
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=300,
            ack="none", recovery="none", sequencing="none", jitter="none",
        )
        w.transfer(cfg, [b"m" * 1000] * 50, until=10.0)
        assert 0 < len(w.delivered) < 50

    def test_fec_xor_repairs_single_losses(self):
        w = TwoHosts(profile=ethernet_10().scaled(ber=4e-6))
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=300,
            ack="none", recovery="fec-xor", fec_k=4, sequencing="none",
        )
        w.transfer(cfg, [b"m" * 800] * 60, until=10.0)
        rx = w.rx_sessions[0]
        assert rx.stats.fec_recoveries > 0
        reconstructed = [m for _, m in w.delivered if m["reconstructed"]]
        assert reconstructed

    def test_fec_repairs_beat_no_recovery(self):
        def run(recovery):
            w = TwoHosts(profile=ethernet_10().scaled(ber=4e-6))
            cfg = SessionConfig(
                connection="implicit", transmission="rate", rate_pps=300,
                ack="none", recovery=recovery, fec_k=4, fec_r=2,
                sequencing="none",
            )
            w.transfer(cfg, [b"m" * 800] * 80, until=12.0)
            return len(w.delivered)

        assert run("fec-rs") > run("none")

    def test_corrupted_delivered_without_checksum(self):
        w = TwoHosts(profile=ethernet_10().scaled(ber=2e-5))
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=200,
            ack="none", recovery="none", detection="none", sequencing="none",
        )
        w.transfer(cfg, [b"m" * 1000] * 40, until=10.0)
        rx = w.rx_sessions[0]
        assert rx.stats.corrupted_delivered > 0
        assert len(w.delivered) == 40  # nothing dropped, some damaged


class TestFlowControl:
    def test_stop_and_wait_one_outstanding(self):
        w = TwoHosts()
        cfg = SessionConfig(transmission="stop-and-wait", window=1)
        w.listen()
        s = w.open(cfg)
        for _ in range(5):
            s.send(b"d" * 500)
        max_outstanding = 0
        # sample outstanding while running
        def probe():
            nonlocal max_outstanding
            max_outstanding = max(max_outstanding, s.state.outstanding_count())
            return True

        w.sim.call_each(0.0005, probe)
        w.sim.run(until=2.0)
        assert len(w.delivered) == 5
        assert max_outstanding <= 1

    def test_window_caps_outstanding(self):
        w = TwoHosts()
        cfg = SessionConfig(window=4)
        w.listen()
        s = w.open(cfg)
        for _ in range(20):
            s.send(b"d" * 1000)
        max_out = 0

        def probe():
            nonlocal max_out
            max_out = max(max_out, s.state.outstanding_count())
            return True

        w.sim.call_each(0.0005, probe)
        w.sim.run(until=5.0)
        assert len(w.delivered) == 20
        assert max_out <= 4

    def test_rate_pacing_spreads_transmissions(self):
        w = TwoHosts()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=100,
            ack="none", recovery="none", sequencing="none",
        )
        w.listen()
        s = w.open(cfg)
        for _ in range(30):
            s.send(b"d" * 200)
        w.sim.run(until=5.0)
        # 30 PDUs at 100 pps take ~0.3 s; delivery times must span that
        times = [m["sent_at"] for _, m in w.delivered]
        assert max(times) - min(times) == pytest.approx(29 / 100, rel=0.1)


class TestClose:
    def test_graceful_close_drains_first(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(10):
            s.send(b"z" * 1000)
        s.close()
        w.sim.run(until=10.0)
        assert len(w.delivered) == 10
        assert s.closed
        assert w.rx_sessions[0].closed

    def test_abort_tears_down_immediately(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        s.send(b"z")
        s.abort("test abort")
        assert s.closed
        assert s.stats.aborted == "test abort"
        w.sim.run(until=2.0)

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_final_ack_completing_close_is_clean(self, kind, executors):
        # close() with the window still outstanding parks the session in
        # _closing; under implicit (non-blocking) connection management the
        # ack that releases the last entry finishes the close *inside*
        # handle_ack, unbinding the mechanism table mid-call.  The executor
        # must stop driving the unbound mechanisms at that point instead of
        # dereferencing mechanism.session == None.
        with executors(kind):
            w = TwoHosts()
            w.listen()
            s = w.open(SessionConfig(connection="implicit"))
            for _ in range(4):
                s.send(b"z" * 600)
            s.close()
            w.sim.run(until=10.0)
        assert s.closed
        assert len(w.delivered) == 4

    def test_close_flushes_fec_partial_group(self):
        w = TwoHosts()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=500,
            ack="none", recovery="fec-xor", fec_k=8, sequencing="none",
        )
        w.listen()
        s = w.open(cfg)
        for _ in range(3):  # fewer than k: parity only on flush
            s.send(b"p" * 200)
        w.sim.run(until=1.0)
        assert s.stats.parity_sent == 0
        s.close()
        w.sim.run(until=3.0)
        assert s.stats.parity_sent == 1
