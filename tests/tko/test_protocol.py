"""Unit tests for the TKO protocol object: demux, listeners, graph ops."""


from repro.netsim.frame import Frame
from repro.tko.config import SessionConfig
from repro.tko.message import CopyMeter, TKOMessage
from repro.tko.pdu import PDU_POOL
from repro.tko.protocol import PassthroughLayer
from tests.conftest import TwoHosts


class TestDemux:
    def test_unclaimed_frame_counted(self):
        w = TwoHosts()
        w.net.send(Frame("A", "B", 100, payload="not a pdu"))
        w.sim.run(until=1.0)
        assert w.pb.frames_unclaimed == 1

    def test_pdu_to_unknown_port_unclaimed(self):
        w = TwoHosts()
        acquired0, recycled0 = PDU_POOL.acquired, PDU_POOL.recycled
        s = w.pa.create_session(SessionConfig(connection="implicit"), "B", 4242)
        s.connect()
        s.send(b"x")
        w.sim.run(until=1.0)
        assert w.pb.frames_unclaimed >= 1
        # B dropped the wire's reference on every unclaimed copy, so once
        # the sender gives up its own the shell returns to the pool
        s.abort("peer never answered")
        acquired = PDU_POOL.acquired - acquired0
        assert acquired >= 1
        assert PDU_POOL.recycled - recycled0 == acquired

    def test_sessions_tracked_and_released(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        s.send(b"x")
        w.sim.run(until=1.0)
        assert s.conn_id in w.pa.sessions
        s.close()
        w.sim.run(until=5.0)
        assert s.conn_id not in w.pa.sessions
        assert w.rx_sessions[0].conn_id not in w.pb.sessions

    def test_burst_of_first_datas_creates_one_session(self):
        w = TwoHosts()
        w.listen(SessionConfig(connection="implicit"))
        s = w.open(SessionConfig(connection="implicit"))
        for _ in range(5):
            s.send(b"x" * 100)
        w.sim.run(until=2.0)
        assert len(w.rx_sessions) == 1
        assert len(w.delivered) == 5

    def test_two_concurrent_sessions_demuxed(self):
        w = TwoHosts()
        w.listen()
        s1 = w.open(SessionConfig())
        s2 = w.open(SessionConfig())
        s1.send(b"one")
        s2.send(b"two")
        w.sim.run(until=2.0)
        assert sorted(d for d, _ in w.delivered) == [b"one", b"two"]
        assert len(w.rx_sessions) == 2

    def test_unlisten_stops_accepting(self):
        w = TwoHosts()
        w.listen()
        w.pb.unlisten(7000)
        s = w.open(SessionConfig(connection="implicit"))
        s.send(b"x")
        w.sim.run(until=1.0)
        assert w.delivered == []


class TestPassthroughLayer:
    def test_zero_copy_layer_moves_no_bytes(self):
        meter = CopyMeter()
        msg = TKOMessage(b"d" * 4096, meter=meter)
        layer = PassthroughLayer("ip", header_bytes=20)
        out = layer.encapsulate(msg)
        assert out.header_length == 20
        out = layer.decapsulate(out)
        assert out.header_length == 0
        assert meter.bytes_copied == 0

    def test_naive_layer_copies_payload(self):
        meter = CopyMeter()
        msg = TKOMessage(b"d" * 4096, meter=meter)
        layer = PassthroughLayer("ip", header_bytes=20, zero_copy=False)
        layer.encapsulate(msg)
        assert meter.bytes_copied == 4096

    def test_graph_insert_remove(self):
        w = TwoHosts()
        layer = PassthroughLayer("llc")
        w.pa.insert_layer(layer)
        assert layer in w.pa.layers
        w.pa.remove_layer(layer)
        assert layer not in w.pa.layers
