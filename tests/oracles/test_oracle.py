"""The oracle's own contract: it never pools, it declares what it lacks,
and its live walk follows the mechanism table when a cost changes in place
(``tests/tko/test_pipeline.py::TestChargeEquality`` holds the config matrix
and the segue case)."""

from repro.tko.config import SessionConfig
from repro.tko.message import TKOMessage
from repro.tko.pdu import PduType
from tests.conftest import TwoHosts
from tests.oracles.reference import CostModel, ReferenceExecutor


def test_oracle_never_pools_and_compiles_nothing(executors):
    with executors("oracle"):
        w = TwoHosts()
        s = w.pa.create_session(SessionConfig(), "B", 7000)
    assert type(s.executor) is ReferenceExecutor
    assert not s._pooling and s.make_pdu(PduType.DATA).pooled is False
    assert s.executor.pipeline is None and s.executor.codegen_key is None
    # ...and the template it warmed holds no compiled artefact
    template = w.pa.synthesizer.templates.peek(s.cfg)
    assert template.specs is None and template.pipelines == {}


def test_walk_follows_a_multicast_membership_change():
    cfg = SessionConfig(connection="implicit", delivery="multicast")
    s = TwoHosts().pa.create_session(cfg, "g", 7000, group="g", members=["B"])
    walk = CostModel(s)
    pdu = s.make_pdu(PduType.DATA)
    pdu.message = TKOMessage(b"x" * 700)
    before = walk.send_charge(pdu)
    assert s.executor.pipeline.send_charge(700) == before
    s.context.delivery.membership_changed(["B", "C", "D"])
    after = walk.send_charge(pdu)
    assert after[0] == before[0] + 10.0  # 5 instructions per member
    assert s.executor.pipeline.send_charge(700) == after
    assert s.executor.pipeline.recv_charge(700, pdu.compact) == walk.recv_charge(pdu)
