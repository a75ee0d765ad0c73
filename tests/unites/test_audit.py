"""QoS conformance auditing: contract capture, sliding-window measurement,
violation detection per dimension, black-box dumps, adaptation cross-links,
and the zero-cost-when-disabled discipline."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko.config import SessionConfig
from repro.unites.obs.audit import AUDIT, QoSAuditor, QoSContract, QoSViolation
from repro.unites.obs.telemetry import TELEMETRY
from tests.conftest import TwoHosts


@pytest.fixture(autouse=True)
def clean_global_planes():
    TELEMETRY.disable()
    TELEMETRY.reset()
    AUDIT.disable()
    AUDIT.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
    AUDIT.disable()
    AUDIT.reset()


# ----------------------------------------------------------------------
# synthetic harness: drive an auditor without a full world
# ----------------------------------------------------------------------
class FakeSim:
    def __init__(self) -> None:
        self.now = 0.0


def contract(**over) -> QoSContract:
    base = dict(
        connection="C-1", avg_throughput_bps=0.0, peak_throughput_bps=0.0,
        max_latency=None, max_jitter=None, loss_tolerance=0.0,
        ordered=True, captured_at=0.0,
    )
    base.update(over)
    return QoSContract(**base)


def fake_session(sim):
    return SimpleNamespace(
        sim=sim,
        observers=[],
        closed=False,
        state=SimpleNamespace(outstanding={}),
        _send_queue=[],
    )


def harness(c: QoSContract, **kw):
    sim = FakeSim()
    sender = fake_session(sim)
    receiver = fake_session(sim)
    kw.setdefault("window", 0.1)
    kw.setdefault("warmup_windows", 0)
    auditor = QoSAuditor(c, **kw)
    auditor.attach_sender(sender)
    auditor.attach_receiver(receiver)
    return sim, sender, receiver, auditor


def deliver(auditor, receiver, msg_id, nbytes=100, latency=0.01):
    auditor._on_receiver_event(
        "deliver", receiver, msg_id=msg_id, nbytes=nbytes, latency=latency
    )


def data_pdu(seq):
    return SimpleNamespace(ptype=SimpleNamespace(value="data"), seq=seq)


class TestWindowMechanics:
    def test_clean_run_scores_one(self):
        sim, s, r, a = harness(contract(max_latency=0.5, max_jitter=0.5))
        for i in range(10):
            sim.now = 0.02 * (i + 1)
            deliver(a, r, msg_id=i)
        sim.now = 1.0
        a.on_network_sample(SimpleNamespace(rtt=0.01))
        a.finalize()
        assert a.violations == []
        assert a.overall_score == 1.0
        assert a.evaluated_windows >= 2
        card = a.scorecard()
        assert card["connection"] == "C-1"
        assert card["dimensions"]["delay"]["score"] == 1.0

    def test_windows_advance_lazily_on_any_event(self):
        sim, s, r, a = harness(contract())
        deliver(a, r, msg_id=0)
        sim.now = 0.55  # five whole windows elapse with no events
        deliver(a, r, msg_id=1)
        assert a.closed_windows == 5

    def test_delay_violation(self):
        sim, s, r, a = harness(contract(max_latency=0.05))
        deliver(a, r, msg_id=0, latency=0.2)
        sim.now = 0.2
        a.finalize()
        kinds = [v.kind for v in a.violations]
        assert kinds == ["delay"]
        v = a.violations[0]
        assert v.measured == pytest.approx(0.2)
        assert v.bound == pytest.approx(0.05)

    def test_jitter_violation_needs_two_deliveries(self):
        sim, s, r, a = harness(contract(max_jitter=0.001))
        deliver(a, r, msg_id=0, latency=0.01)
        a.finalize()
        assert a.violations == []  # one delivery: jitter undefined
        sim.now = 0.15
        deliver(a, r, msg_id=1, latency=0.01)
        deliver(a, r, msg_id=2, latency=0.30)
        sim.now = 0.35
        a.finalize()
        assert [v.kind for v in a.violations] == ["jitter"]

    def test_ordering_violation_only_when_contracted(self):
        for ordered, expected in ((True, ["ordering"]), (False, [])):
            sim, s, r, a = harness(contract(ordered=ordered))
            deliver(a, r, msg_id=5)
            deliver(a, r, msg_id=3)  # regression
            a.finalize()
            assert [v.kind for v in a.violations] == expected

    def test_throughput_checked_only_under_offered_load(self):
        c = contract(avg_throughput_bps=80_000.0)
        sim, s, r, a = harness(c)
        # idle windows with an idle sender: no throughput verdicts
        sim.now = 0.5
        a.on_network_sample(SimpleNamespace(rtt=0.01))
        assert a.checked.get("throughput", 0) == 0
        # sender becomes backlogged: subsequent silent windows violate
        s.state.outstanding[1] = object()
        a.on_network_sample(SimpleNamespace(rtt=0.01))
        sim.now = 1.0
        a.on_network_sample(SimpleNamespace(rtt=0.01))
        assert a.checked["throughput"] >= 1
        assert any(v.kind == "throughput" for v in a.violations)

    def test_throughput_warmup_windows_are_skipped(self):
        c = contract(avg_throughput_bps=1e9)
        sim, s, r, a = harness(c, warmup_windows=3)
        for i in range(3):
            sim.now = 0.1 * i + 0.05
            deliver(a, r, msg_id=i, nbytes=10)
        a.finalize()
        assert a.checked.get("throughput", 0) == 0
        sim.now = 0.35
        deliver(a, r, msg_id=9, nbytes=10)
        sim.now = 0.55
        deliver(a, r, msg_id=10, nbytes=10)
        assert a.checked["throughput"] >= 1

    def test_loss_holes_resolve_after_grace(self):
        c = contract(loss_tolerance=0.0)
        sim, s, r, a = harness(c, loss_grace=0.2)
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(0))
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(3))  # holes 1,2
        sim.now = 0.15
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(1))  # hole filled
        assert a.violations == []
        sim.now = 0.6  # hole 2 outlives the grace period
        a.on_network_sample(SimpleNamespace(rtt=0.01))
        assert [v.kind for v in a.violations] == ["loss"]
        # the hole resolves in the window whose close passed the grace
        # cutoff: 1 lost vs the 1 DATA PDU that window itself received
        assert a.violations[0].measured == pytest.approx(0.5)

    def test_duplicate_and_corrupted_pdus_do_not_count_as_loss(self):
        sim, s, r, a = harness(contract(), loss_grace=0.0)
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(0))
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(0))  # dup
        a._on_receiver_event("pdu-received", r, pdu=data_pdu(1), corrupted=True)
        sim.now = 0.5
        a.finalize()
        assert a.violations == []
        assert a._cur is not None

    def test_violation_astuple_is_json_stable(self):
        v = QoSViolation(1.0, "C-1", "loss", 0.5, 0.1, 9, "d")
        assert v.astuple() == (1.0, "C-1", "loss", 0.5, 0.1, 9, "d")
        json.dumps(v.to_dict())

    def test_violation_list_is_capped(self):
        sim, s, r, a = harness(contract(max_latency=1e-6))
        for i in range(QoSAuditor.MAX_VIOLATIONS + 20):
            sim.now = 0.1 * i + 0.05
            deliver(a, r, msg_id=i, latency=0.5)
        sim.now += 1.0
        a.finalize()
        assert len(a.violations) == QoSAuditor.MAX_VIOLATIONS
        assert a.violations_dropped >= 20
        assert a.scorecard()["violations"] > QoSAuditor.MAX_VIOLATIONS


class TestAuditPlaneDumps:
    def test_violation_triggers_exactly_one_dump(self):
        AUDIT.enable(window=0.1, warmup_windows=0)
        sim = FakeSim()
        sender = fake_session(sim)
        sender.remote_host = "B"
        sender.host = SimpleNamespace(name="A")
        sender.local_port = 1
        a = AUDIT.attach_session(sender, contract(max_latency=0.01))
        r = fake_session(sim)
        for i in range(4):
            sim.now = 0.1 * i + 0.05
            a._on_receiver_event("deliver", r, msg_id=i, nbytes=10, latency=0.5)
        sim.now = 0.6
        a.finalize()
        assert len(a.violations) >= 2
        assert len(AUDIT.dumps) == 1  # one per trigger kind, not per breach
        dump = AUDIT.dumps[0]
        assert dump["trigger"]["kind"] == "violation"
        assert dump["connection"] == "C-1"
        assert dump["records"]
        json.dumps(dump)

    def test_dump_dir_writes_self_contained_json(self, tmp_path):
        AUDIT.enable(window=0.1, warmup_windows=0, dump_dir=str(tmp_path))
        sim = FakeSim()
        sender = fake_session(sim)
        a = AUDIT.attach_session(sender, contract(max_latency=0.01), watch_peer=False)
        r = fake_session(sim)
        a._on_receiver_event("deliver", r, msg_id=0, nbytes=10, latency=0.5)
        sim.now = 0.3
        a.finalize()
        assert AUDIT.dump_paths
        with open(AUDIT.dump_paths[0]) as fh:
            dump = json.load(fh)
        assert dump["kind"] == "flight-recorder-dump"
        assert dump["scorecard"]["connection"] == "C-1"

    def test_abnormal_teardown_dumps(self):
        AUDIT.enable(window=0.1)
        sim = FakeSim()
        sender = fake_session(sim)
        a = AUDIT.attach_session(sender, contract(), watch_peer=False)
        a._on_sender_event("abort", sender, reason="link dead")
        assert a.teardown == "link dead"
        assert [d["trigger"]["kind"] for d in AUDIT.dumps] == ["abnormal-teardown"]


class TestRealWorldAttachment:
    def test_disabled_plane_leaves_sessions_unobserved(self):
        w = TwoHosts(seed=3)
        s = w.transfer(SessionConfig(), [b"x" * 400] * 5)
        assert s.observers == []
        assert all(rx.observers == [] for rx in w.rx_sessions)
        assert len(AUDIT) == 0

    def test_receiver_session_matched_through_demux(self):
        AUDIT.enable(window=0.25)
        w = TwoHosts(seed=4)
        w.listen()
        s = w.open(SessionConfig())
        a = AUDIT.attach_session(
            s, contract(connection="T-1", max_latency=5.0, ordered=True)
        )
        for i in range(8):
            s.send(b"m%d" % i + b"z" * 300)
        w.sim.run(until=5.0)
        AUDIT.finalize()
        assert a.sender is s
        assert a.receiver is w.rx_sessions[0]
        assert len(w.delivered) == 8
        assert a.violations == []
        card = a.scorecard()
        assert card["dimensions"]["delay"]["windows"] >= 1
        assert card["dimensions"]["loss"]["windows"] >= 1
        # the ring saw real traffic from both endpoints
        kinds = {rec["kind"] for rec in a.recorder.snapshot()}
        assert "deliver" in kinds


def bad_state(**over):
    base = NetworkState(
        src="A", dst="B", reachable=True, rtt=0.003, base_rtt=0.003,
        bottleneck_bps=10e6, mtu=1500, ber=1e-9, congestion=0.9,
        loss_rate=0.0, hops=3, path=("A", "s1", "s2", "B"),
    )
    return dataclasses.replace(base, **over) if over else base


class TestMANTTSIntegration:
    def _world(self, seed=1):
        sysm = AdaptiveSystem(seed=seed)
        sysm.attach_network(
            linear_path(sysm.sim, ethernet_10(), ("A", "B"), rng=sysm.rng)
        )
        a, b = sysm.node("A"), sysm.node("B")
        got = []
        b.mantts.register_service(7000, on_deliver=lambda d, m: got.append(d))
        return sysm, a, b, got

    def _acd(self, **qover):
        q = dict(avg_throughput_bps=200e3, duration=600,
                 max_latency=0.5, max_jitter=0.2)
        q.update(qover)
        return ACD(
            participants=("B",),
            quantitative=QuantitativeQoS(**q),
            qualitative=QualitativeQoS(),
        )

    def test_contract_captured_at_instantiation(self):
        sysm, a, b, got = self._world()
        sysm.enable_audit(window=0.1)
        conn = a.mantts.open(self._acd())
        sysm.run(until=0.5)
        assert conn._established
        auditor = AUDIT.auditors[conn.ref]
        c = auditor.contract
        assert c.avg_throughput_bps == pytest.approx(200e3)
        assert c.max_latency == pytest.approx(0.5)
        assert c.ordered is True
        assert auditor.sender is conn.session
        assert auditor.receiver is not None  # responder matched via demux

    def test_conformant_transfer_scores_clean(self):
        sysm, a, b, got = self._world()
        sysm.enable_telemetry()
        sysm.enable_audit(window=0.1)
        conn = a.mantts.open(self._acd(avg_throughput_bps=50e3))
        sysm.run(until=0.5)
        for _ in range(20):
            conn.send(b"x" * 400)
            sysm.run(until=sysm.now + 0.02)
        sysm.run(until=sysm.now + 0.3)
        AUDIT.finalize()
        auditor = AUDIT.auditors[conn.ref]
        assert got and auditor.violations == []
        assert auditor.overall_score == 1.0
        snap = TELEMETRY.metrics.snapshot()
        assert any(k.startswith("qos_conformance_score") for k in snap)
        assert any(k.startswith("qos_conformance_windows_total") for k in snap)

    def test_underdelivery_violates_and_surfaces_in_manager_table(self):
        sysm, a, b, got = self._world()
        sysm.enable_audit(window=0.1)
        # demand far beyond what this send pattern delivers
        conn = a.mantts.open(self._acd(avg_throughput_bps=5e6))
        sysm.run(until=0.5)
        for _ in range(10):
            conn.send(b"x" * 200)
            sysm.run(until=sysm.now + 0.05)
        AUDIT.finalize()
        auditor = AUDIT.auditors[conn.ref]
        assert any(v.kind == "throughput" for v in auditor.violations)
        assert any(d["trigger"]["kind"] == "violation" for d in AUDIT.dumps)
        rows = a.mantts.manager.table()
        row = next(r for r in rows if r["ref"] == conn.ref)
        assert row["qos_violations"] >= 1
        assert row["qos_score"] < 1.0
        cards = a.mantts.manager.audit_scorecards()
        assert cards and cards[0]["connection"] == conn.ref

    def test_adaptation_decisions_cross_link_into_audit_trail(self):
        sysm, a, b, got = self._world(seed=7)
        sysm.enable_audit(window=0.1)
        conn = a.mantts.open(self._acd(), adaptation=True)
        sysm.run(until=0.5)
        ad = conn.adaptation
        ad.on_sample(bad_state(congestion=0.05))  # healthy baseline
        for _ in range(20):
            ad.on_sample(bad_state())
            if ad.level >= 2:
                break
        assert ad.level >= 2  # climbed retune -> segue on sustained congestion
        ad._degrade(bad_state())  # bottom rung: graceful degradation
        assert ad.decisions and ad.decisions[0].rung in (
            "normal", "retuned", "segued", "renegotiated", "degraded"
        )
        # structured trail: the trigger sample and crossed thresholds ride along
        d = next(d for d in ad.decisions if d.action == "retune")
        assert d.trigger["congestion"] == pytest.approx(0.9)
        assert ("congestion", pytest.approx(0.9), pytest.approx(0.5)) in [
            (n, m, b) for n, m, b in d.thresholds
        ] or d.thresholds  # thresholds recorded
        auditor = AUDIT.auditors[conn.ref]
        assert auditor.decisions  # cross-linked into the audit plane
        assert any(x["action"] == "retune" for x in auditor.decisions)
        # reaching "degrade" snapshots a degradation black box
        assert any(d["trigger"]["kind"] == "degradation" for d in AUDIT.dumps)

    def test_events_tuple_format_is_unchanged(self):
        sysm, a, b, got = self._world(seed=8)
        conn = a.mantts.open(self._acd(), adaptation=True)
        sysm.run(until=0.5)
        ad = conn.adaptation
        ad.on_sample(bad_state(congestion=0.05))
        for _ in range(10):
            ad.on_sample(bad_state())
        assert ad.events
        for ev in ad.events:
            assert len(ev) == 3
            t, action, detail = ev
            assert isinstance(t, float) and isinstance(action, str)
