"""Targeted coverage of known edge paths across subsystems."""

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko.config import SessionConfig
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType
from repro.tko.state import RttEstimator
from repro.unites.analyze import time_weighted_mean
from repro.unites.present import render_series
from tests.conftest import TwoHosts


class TestChangeTscEdges:
    def test_invalid_tsc_name_rejected(self):
        sysm = AdaptiveSystem(seed=1)
        sysm.attach_network(
            linear_path(sysm.sim, ethernet_10(), ("A", "B"), rng=sysm.rng)
        )
        a, b = sysm.node("A"), sysm.node("B")
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        conn = a.mantts.open(ACD(participants=("B",)))
        sysm.run(until=1.0)
        assert conn.change_tsc("hyperspace", conn.monitor.snapshot()) is False


class TestMemberUpdateSignalling:
    def test_join_op_adds_to_delivery_tree(self):
        sysm = AdaptiveSystem(seed=2)
        from repro.netsim.profiles import star

        sysm.attach_network(star(sysm.sim, ethernet_10(), ["A", "B"], rng=sysm.rng))
        a, b = sysm.node("A"), sysm.node("B")
        a.mantts._send_signalling(
            "B", {"type": "member-update", "group": "g1", "op": "join"}
        )
        sysm.run(until=1.0)
        assert sysm.network.group_members("g1") == {"B"}
        a.mantts._send_signalling(
            "B", {"type": "member-update", "group": "g1", "op": "leave"}
        )
        sysm.run(until=2.0)
        assert sysm.network.group_members("g1") == set()


class TestFecParityFirst:
    def test_repair_opportunity_when_parity_precedes_data(self):
        """A data shard arriving *after* its group's parity completes the
        group through repair_opportunity (not on_receive_repair)."""
        w = TwoHosts()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=500,
            ack="none", recovery="fec-xor", fec_k=2, sequencing="none",
            segment_size=200,
        )
        w.listen(cfg)
        s = w.open(cfg)
        s.send(b"a" * 150)
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        fec = rx.context.recovery
        # hand-feed a parity for a group whose data has not arrived yet
        from repro.mechanisms import gf256

        d0, d1 = b"x" * 100, b"y" * 100
        parity_payload = gf256.xor_encode([d0, d1])
        parity = PDU(PduType.PARITY, s.conn_id,
                     message=TKOMessage(parity_payload))
        parity.options.update({
            "fg": 100, "k": 2, "r": 1, "index": 0,
            "metas": [
                {"seq": 100, "msg_id": 900, "frag_index": 0, "frag_count": 1,
                 "size": 100},
                {"seq": 101, "msg_id": 901, "frag_index": 0, "frag_count": 1,
                 "size": 100},
            ],
        })
        assert fec.on_receive_repair(parity) == []  # 0 of 2 shards: nothing
        data0 = PDU(PduType.DATA, s.conn_id, seq=100, msg_id=900,
                    options={"fg": 100}, message=TKOMessage(d0))
        fec.note_data_received(data0)
        rebuilt = fec.repair_opportunity(data0)
        assert len(rebuilt) == 1
        assert rebuilt[0].seq == 101
        assert rebuilt[0].message.materialize() == d1


class TestRttEstimatorEdges:
    def test_rto_max_clamp(self):
        r = RttEstimator(rto_initial=10.0, rto_max=20.0)
        for _ in range(10):
            r.backoff()
        assert r.rto == 20.0


class TestAnalyzePresentEdges:
    def test_time_weighted_mean_empty_raises(self):
        with pytest.raises(ValueError):
            time_weighted_mean([])

    def test_time_weighted_mean_single_point(self):
        assert time_weighted_mean([(0.0, 7.0)]) == 7.0

    def test_render_series_single_point(self):
        out = render_series([(1.0, 2.0)], label="pt")
        assert "pt" in out and "*" in out


class TestControlChargeLayouts:
    def test_legacy_control_headers_parse_costlier(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        w.sim.run(until=0.5)
        compact = s.make_pdu(PduType.ACK)
        legacy = PDU(PduType.ACK, s.conn_id, compact=False)
        charge = s.executor.pipeline.control_charge
        assert charge(legacy.compact) > charge(compact.compact)
