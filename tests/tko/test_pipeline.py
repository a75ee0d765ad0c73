"""Compiled-pipeline tests: charge equality, template isolation, PDU pool.

The pipeline compiler's contract (§4.2.2, Synthesis/SELF) is that
compilation changes *wall* time only:

* the closed-form per-PDU charges must equal the oracle's per-PDU walk
  (:class:`tests.oracles.reference.CostModel`) bit for bit;
* a cached template hands out fresh mechanism instances per hit — a segue
  on one session must never mutate the cached table under another;
* pooled PDU shells are an executor-private optimisation that never leaks
  into configurations that retain payload references (FEC).
"""

import pytest

from repro.mechanisms.fec import FecXor
from repro.mechanisms.retransmission import GoBackN, SelectiveRepeat
from repro.mechanisms.acknowledgment import SelectiveAck
from repro.tko.config import SessionConfig
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU_POOL, PduType
from tests.conftest import EXECUTORS, TwoHosts
from tests.oracles.reference import CostModel

CONFIGS = {
    "default": SessionConfig(),
    "rate-unreliable": SessionConfig(
        connection="implicit", transmission="rate", rate_pps=500.0,
        ack="none", recovery="none", sequencing="none",
    ),
    "sr-selective": SessionConfig(ack="selective", recovery="sr"),
    "legacy-headers": SessionConfig(compact_headers=False),
    "header-checksum": SessionConfig(checksum_placement="header"),
    "fec-playout": SessionConfig(
        connection="implicit", transmission="rate", rate_pps=400.0,
        ack="none", recovery="fec-xor", sequencing="none", jitter="playout",
    ),
    "static": SessionConfig(binding="static"),
    "reconfigurable": SessionConfig(binding="reconfigurable"),
}


class TestChargeEquality:
    """Closed-form scalars vs the oracle's live walk: exact equality."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_closed_form_matches_cost_model(self, name):
        cfg = CONFIGS[name]
        w = TwoHosts()
        s = w.pa.create_session(cfg, "B", 7000)
        pipe, walk = s.executor.pipeline, CostModel(s)
        for nbytes in (0, 1, 137, 1453):
            pdu = s.make_pdu(PduType.DATA)
            if nbytes:
                pdu.message = TKOMessage(b"x" * nbytes)
            assert pipe.send_charge(pdu.data_size) == walk.send_charge(pdu)
            assert pipe.recv_charge(pdu.data_size, pdu.compact) == walk.recv_charge(pdu)
        ack = s.make_pdu(PduType.ACK)
        assert pipe.control_charge(ack.compact) == walk.control_charge(ack)

    def test_segue_recompiles_only_the_swapped_slot(self):
        w = TwoHosts()
        s = w.pa.create_session(SessionConfig(), "B", 7000)
        before = dict(s.executor.pipeline.specs)
        s.segue("recovery", SelectiveRepeat())
        after = s.executor.pipeline.specs
        assert after["recovery"].name == "sr"
        for slot, spec in before.items():
            if slot != "recovery":
                assert after[slot] == spec
        # and the recompiled scalars still agree with the walk
        pdu = s.make_pdu(PduType.DATA)
        pdu.message = TKOMessage(b"y" * 512)
        assert s.executor.pipeline.send_charge(512) == CostModel(s).send_charge(pdu)


class TestTemplateCacheIsolation:
    """Cache hits build *fresh* mechanisms from the stored recipe."""

    def test_second_session_gets_fresh_mechanisms(self):
        w = TwoHosts()
        cfg = SessionConfig()
        s1 = w.pa.create_session(cfg, "B", 7000)
        s2 = w.pa.create_session(cfg, "B", 7001)
        t = w.pa.synthesizer.templates.peek(cfg)
        assert t is not None and t.plan is not None and t.specs is not None
        for slot in ("connection", "transmission", "recovery", "ack", "buffer"):
            assert s1.context.get(slot) is not s2.context.get(slot)

    def test_segue_on_cached_session_does_not_poison_cache(self):
        w = TwoHosts()
        cfg = SessionConfig()
        s1 = w.pa.create_session(cfg, "B", 7000)
        s2 = w.pa.create_session(cfg, "B", 7001)  # template hit
        s2.segue("recovery", SelectiveRepeat())
        s2.segue("ack", SelectiveAck())
        plan = {slot: cls for slot, cls, _ in w.pa.synthesizer.templates.peek(cfg).plan}
        assert plan["recovery"] is GoBackN
        assert type(s1.context.recovery) is GoBackN
        s3 = w.pa.create_session(cfg, "B", 7002)  # later hit: unpoisoned
        assert type(s3.context.recovery) is GoBackN

    def test_update_config_does_not_mutate_cached_specs(self):
        w = TwoHosts()
        cfg = SessionConfig()
        w.pa.create_session(cfg, "B", 7000)
        s2 = w.pa.create_session(cfg, "B", 7001)
        t = w.pa.synthesizer.templates.peek(cfg)
        before = dict(t.specs)
        s2.update_config(cfg.with_(rate_pps=250.0))
        assert t.specs == before


class TestPduPool:
    def test_transfer_reuses_shells(self):
        before = PDU_POOL.reused
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(12):
            s.send(b"p" * 600)
        w.sim.run(until=5.0)
        assert len(w.delivered) == 12
        assert PDU_POOL.reused > before

    def test_fec_sessions_are_not_pool_eligible(self):
        w = TwoHosts()
        s = w.pa.create_session(CONFIGS["fec-playout"], "B", 7000)
        assert not s._pooling
        assert s.make_pdu(PduType.DATA).pooled is False

    def test_segue_to_fec_demotes_queued_pdus(self):
        w = TwoHosts()
        w.listen()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=5.0,
            ack="none", recovery="none", sequencing="none",
        )
        s = w.open(cfg)
        for _ in range(6):
            s.send(b"q" * 200)
        assert s._pooling
        assert any(p.pooled for p in s._send_queue)
        s.segue("recovery", FecXor())
        # FEC holds PDU references across sends, so pooling is off and the
        # already-queued shells are demoted to ordinary PDUs
        assert not s._pooling
        assert all(not p.pooled for p in s._send_queue)


class TestExecutorEquivalence:
    """The oracle and the shipped executor produce the same simulated world."""

    @pytest.mark.parametrize(
        "name", ["default", "sr-selective", "legacy-headers", "fec-playout", "static"]
    )
    def test_same_simulated_world(self, name, executors):
        cfg = CONFIGS[name]
        outcomes = {}
        for kind in EXECUTORS:
            with executors(kind):
                w = TwoHosts(seed=7)
                s = w.transfer(cfg, [b"m" * 900] * 10, until=8.0)
            outcomes[kind] = (
                len(w.delivered),
                sum(len(data) for data, _ in w.delivered),
                w.sim.now,
                s.stats.pdus_sent,
                s.stats.retransmissions,
                w.ha.cpu.instructions_retired,
                w.hb.cpu.instructions_retired,
            )
        assert outcomes["oracle"] == outcomes["shipped"]
