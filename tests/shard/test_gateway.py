"""Cross-shard transit edges: what the gateway refuses, and what it frees.

The egress contract under test is the same one the real transport
substrates honour: once a frame reaches the send boundary, its pooled
wire reference is *consumed* — on success, on refusal, and on encode
failure alike — because no receive path in this process will ever see
it again.
"""

import types

import pytest

from repro.netsim.frame import Frame, encode_frame
from repro.netsim.network import Network
from repro.shard.gateway import GatewayLink, ShardGateway, make_boundary
from repro.sim.kernel import Simulator
from repro.tko.pdu import PDU_POOL, PduType


def _world():
    sim = Simulator()
    net = Network(sim)
    net.add_node("A")
    net.add_node("B")
    net.add_link("A", "B", bandwidth_bps=1e6, delay=2e-3, bidirectional=False)
    gw = ShardGateway(sim, net, shard_id=0)
    link = make_boundary(net.links[("A", "B")], gw, dst_shard=1, far_node="B")
    return sim, net, gw, link


def _pooled_pdu():
    return PDU_POOL.acquire(PduType.DATA, conn_id=1, src_port=1, dst_port=2)


class TestEgressRefusals:
    def test_multicast_refused_and_payload_released(self):
        _sim, _net, gw, link = _world()
        pdu = _pooled_pdu()
        frame = Frame("A", "g", 100, payload=pdu, multicast_dsts=["B", "C"])
        r0 = PDU_POOL.recycled
        gw.ship(link, frame)
        assert gw.stats.refused_multicast == 1
        assert gw.stats.frames_out == 0
        assert not gw.drain_outbox()
        assert PDU_POOL.recycled == r0 + 1  # the wire reference was consumed

    def test_heartbeat_refused_and_counted(self):
        _sim, _net, gw, link = _world()
        frame = Frame("A", "B", 64)
        frame.heartbeat = True
        gw.ship(link, frame)
        assert gw.stats.refused_heartbeat == 1
        assert gw.stats.frames_out == 0
        assert not gw.drain_outbox()

    def test_encode_failure_releases_pooled_payload(self):
        _sim, _net, gw, link = _world()
        pdu = _pooled_pdu()
        pdu.options = {"poison": object()}  # not JSON-encodable
        frame = Frame("A", "B", 100, payload=pdu)
        a0, r0 = PDU_POOL.acquired, PDU_POOL.recycled
        gw.ship(link, frame)
        assert gw.stats.encode_errors == 1
        assert gw.stats.frames_out == 0
        assert not gw.drain_outbox()
        assert (PDU_POOL.acquired - a0, PDU_POOL.recycled - r0) == (0, 1)


class TestEgressSuccess:
    def test_shipped_frame_is_stamped_routed_and_released(self):
        sim, _net, gw, link = _world()
        pdu = _pooled_pdu()
        frame = Frame("A", "B", 100, payload=pdu)
        r0 = PDU_POOL.recycled
        gw.ship(link, frame)
        assert PDU_POOL.recycled == r0 + 1
        [(dst_shard, message)] = gw.drain_outbox()
        arrival, priority, src_shard, seq, ingress, blob = message
        assert dst_shard == 1
        assert arrival == pytest.approx(sim.now + link.delay)
        assert (src_shard, seq, ingress) == (0, 0, "B")
        assert gw.stats.frames_out == 1
        assert gw.stats.bytes_out == len(blob)
        assert not gw.drain_outbox()  # drained exactly once

    def test_egress_sequence_increments_per_frame(self):
        _sim, _net, gw, link = _world()
        for _ in range(3):
            gw.ship(link, Frame("A", "B", 64, payload=_pooled_pdu()))
        seqs = [m[3] for _dst, m in gw.drain_outbox()]
        assert seqs == [0, 1, 2]


class TestEagerHalf:
    """A boundary link lands a frame when it leaves the wire, not after
    propagation: the far shard needs the whole delay as notice."""

    SER = 100 * 8 / 1e6

    def test_frame_ships_at_done_stamped_with_the_propagation_delay(self):
        sim, _net, gw, link = _world()
        assert link.send(Frame("A", "B", 100, payload=_pooled_pdu()))
        assert not gw.drain_outbox()  # nothing leaves before the wire is done
        sim.run()
        assert (sim.now, sim.events_dispatched) == (self.SER, 1)
        [(_dst, message)] = gw.drain_outbox()
        assert message[0] == self.SER + link.delay
        assert link._land.__qualname__ == "Link._land"  # bench/spans.py keys on it

    def test_fate_is_decided_at_done_like_any_link(self):
        sim, _net, gw, link = _world()
        r0 = PDU_POOL.recycled
        link.send(Frame("A", "B", 100, payload=_pooled_pdu()))  # lost: down at done
        sim.schedule_at(self.SER / 2, link.fail)
        sim.schedule_at(self.SER * 2, link.restore)
        sim.schedule_at(self.SER * 3, link.send, Frame("A", "B", 100))
        sim.schedule_at(self.SER * 3.5, link.fail)      # ... and back up
        sim.schedule_at(self.SER * 3.75, link.restore)  # before this one's done
        sim.run()
        assert link.stats.dropped_down == 1 and PDU_POOL.recycled == r0 + 1
        assert gw.stats.frames_out == 1


class TestIngress:
    def test_inject_decodes_fresh_unpooled_pdu_at_stamped_arrival(self):
        sim, _net, gw, link = _world()
        gw.ship(link, Frame("A", "B", 100, payload=_pooled_pdu()))
        [(_dst, message)] = gw.drain_outbox()

        received = []
        far_sim = Simulator()
        stub = types.SimpleNamespace(
            switch_latency=5e-6,
            arrived=lambda f: received.append((far_sim.now, f)))
        far_net = types.SimpleNamespace(nodes={"B": stub})
        far_gw = ShardGateway(far_sim, far_net, shard_id=1)
        a0 = PDU_POOL.acquired
        far_gw.inject([message])
        far_sim.run()
        assert far_gw.stats.frames_in == 1
        [(when, frame)] = received
        # the fused entry: already switched, exactly where serial lands it
        assert when == message[0] + 5e-6
        assert far_sim.events_dispatched == 1
        assert frame.payload is not None and frame.payload.pooled is False
        assert PDU_POOL.acquired == a0  # decode never touches the pool

    def test_inject_order_is_message_content_not_pipe_order(self):
        received = []
        sim = Simulator()
        stub = types.SimpleNamespace(
            switch_latency=5e-6, arrived=lambda f: received.append(f.src))
        net = types.SimpleNamespace(nodes={"B": stub})
        gw = ShardGateway(sim, net, shard_id=1)

        def msg(arrival, src_shard, seq, src_name):
            blob = encode_frame(Frame(src_name, "B", 64))
            return (arrival, 5, src_shard, seq, "B", blob)

        # delivered over the pipe in scrambled order; same arrival time
        gw.inject([msg(1e-3, 1, 7, "late"), msg(1e-3, 0, 3, "early")])
        sim.run()
        assert received == ["early", "late"]  # (src_shard, seq) tiebreak


class TestBoundaryConversion:
    def test_make_boundary_preserves_link_state(self):
        sim = Simulator()
        net = Network(sim)
        net.add_node("A")
        net.add_node("B")
        net.add_link("A", "B", bandwidth_bps=1e6, delay=3e-3,
                     bidirectional=False)
        link = net.links[("A", "B")]
        link.stats.enqueued = 17
        gw = ShardGateway(sim, net, shard_id=0)
        out = make_boundary(link, gw, dst_shard=1, far_node="B")
        assert out is link and isinstance(link, GatewayLink)
        assert link.stats.enqueued == 17
        assert link.delay == pytest.approx(3e-3)
        assert (link.gateway, link.dst_shard, link.far_node) == (gw, 1, "B")
