"""Integration tests for the MANTTS entity: negotiation, reconfiguration,
multicast membership, admission refusal, and app notification."""

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD, TSARule
from repro.mantts.negotiation import decode, encode
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.mantts.tsc import APP_PROFILES
from repro.netsim.profiles import ethernet_10, linear_path, star, wan_internet
from repro.netsim.traffic import BackgroundLoad


def build_pair(profile=None, seed=0, admission_bps=1e9):
    sysm = AdaptiveSystem(seed=seed)
    sysm.attach_network(
        linear_path(sysm.sim, profile or ethernet_10(), ("A", "B"), rng=sysm.rng)
    )
    a = sysm.node("A", admission_bps=admission_bps)
    b = sysm.node("B", admission_bps=admission_bps)
    return sysm, a, b


def acd_for(app, participants=("B",), **kw):
    p = APP_PROFILES[app]
    return ACD(participants=participants, quantitative=p.quantitative(),
               qualitative=p.qualitative(), **kw)


class TestSignallingCodec:
    def test_roundtrip(self):
        msg = {"type": "open-request", "ref": "r1", "x": [1, 2]}
        assert decode(encode(msg)) == msg

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode(b"\xff\xfe not json")
        with pytest.raises(ValueError):
            decode(b"[1,2,3]")


class TestExplicitNegotiation:
    def test_open_accept_and_transfer(self):
        sysm, a, b = build_pair()
        got = []
        b.mantts.register_service(7000, on_deliver=lambda d, m: got.append(d))
        states = []
        conn = a.mantts.open(
            acd_for("file-transfer"),
            on_connected=lambda c: states.append("up"),
            on_failed=lambda r: states.append(("fail", r)),
        )
        sysm.run(until=1.0)
        assert states == ["up"]
        conn.send(b"payload" * 100)
        sysm.run(until=3.0)
        assert len(got) == 1

    def test_refusal_when_no_service(self):
        sysm, a, b = build_pair()
        outcomes = []
        a.mantts.open(acd_for("file-transfer"), on_failed=outcomes.append)
        sysm.run(until=2.0)
        assert outcomes and "refused" in outcomes[0]

    def test_admission_counter_reduces_rate(self):
        # responder can only admit a fraction of the requested video rate
        sysm, a, b = build_pair(admission_bps=3e6)
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        acd = acd_for("full-motion-video-compressed")  # wants 10 Mbps
        conn = a.mantts.open(acd)
        sysm.run(until=1.0)
        assert conn.session is not None
        assert conn.cfg.rate_pps is not None
        granted_bps = conn.cfg.rate_pps * 8 * (conn.cfg.segment_size or 1024)
        assert granted_bps <= 3.1e6

    def test_refusal_below_floor(self):
        sysm, a, b = build_pair(admission_bps=100_000)  # can't host video
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        outcomes = []
        a.mantts.open(acd_for("full-motion-video-compressed"), on_failed=outcomes.append)
        sysm.run(until=2.0)
        assert outcomes

    def test_resources_released_on_close(self):
        sysm, a, b = build_pair(admission_bps=1e9)
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        conn = a.mantts.open(acd_for("file-transfer"))
        sysm.run(until=1.0)
        assert len(b.mantts.resources) == 1 or len(b.mantts.resources) == 0
        # note: reservation keyed by negotiation ref on the responder


class TestImplicitPath:
    def test_transactional_opens_without_negotiation(self):
        sysm, a, b = build_pair()
        got = []
        b.mantts.register_service(7000, on_deliver=lambda d, m: got.append(d))
        conn = a.mantts.open(acd_for("oltp"))
        assert conn.session is not None  # synchronous: no signalling RTT
        conn.send(b"q" * 100)
        sysm.run(until=1.0)
        assert got

    def test_unreachable_fails_fast(self):
        sysm, a, b = build_pair()
        sysm.network.add_node("nowhere")
        outcomes = []
        a.mantts.open(
            ACD(participants=("nowhere",)), on_failed=outcomes.append
        )
        assert outcomes and "no route" in outcomes[0]


class TestReconfiguration:
    def test_apply_overrides_propagates_to_peer(self):
        sysm, a, b = build_pair()
        got = []
        b.mantts.register_service(7000, on_deliver=lambda d, m: got.append(d))
        conn = a.mantts.open(acd_for("file-transfer"))
        sysm.run(until=1.0)
        conn.send(b"first" * 50)
        sysm.run(until=2.0)
        ok = conn.apply_overrides({"recovery": "sr", "ack": "selective"}, reason="test")
        assert ok
        sysm.run(until=3.0)
        # both ends now run selective repeat
        assert conn.cfg.recovery == "sr"
        peer = next(iter(b.mantts._peer_sessions.values()))
        assert peer.cfg.recovery == "sr"
        conn.send(b"second" * 50)
        sysm.run(until=5.0)
        assert len(got) == 2

    def test_invalid_override_rejected_gracefully(self):
        sysm, a, b = build_pair()
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        conn = a.mantts.open(acd_for("file-transfer"))
        sysm.run(until=1.0)
        assert conn.apply_overrides({"recovery": "sr"}) is False  # needs sack
        assert conn.cfg.recovery == "gbn"

    def test_tsa_rule_drives_reconfiguration(self):
        sysm, a, b = build_pair(profile=wan_internet())
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        acd = acd_for("file-transfer").__class__(
            participants=("B",),
            quantitative=acd_for("file-transfer").quantitative,
            qualitative=acd_for("file-transfer").qualitative,
            tsa=(
                TSARule(
                    "congestion", ">", 0.4, "adjust-scs",
                    overrides=(("recovery", "sr"), ("ack", "selective")),
                ),
            ),
        )
        conn = a.mantts.open(acd)
        sysm.run(until=1.0)
        assert conn.cfg.recovery == "gbn"
        load = BackgroundLoad(sysm.network, "s1", "s2", rate_bps=2.5e6)
        load.start(1.0)
        sysm.run(until=8.0)
        assert conn.cfg.recovery == "sr"
        assert conn.reconfig_log

    def test_notify_action_reaches_app(self):
        sysm, a, b = build_pair()
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        notes = []
        acd = ACD(
            participants=("B",),
            quantitative=QuantitativeQoS(duration=600),
            qualitative=QualitativeQoS(),
            tsa=(TSARule("rtt", ">", 0.0, "notify", tag="rtt-seen"),),
        )
        conn = a.mantts.open(acd, on_notify=lambda tag, st: notes.append(tag))
        sysm.run(until=2.0)
        assert "rtt-seen" in notes


class TestMulticastMANTTS:
    def _conference(self, members=("B", "C", "D")):
        sysm = AdaptiveSystem(seed=1)
        sysm.attach_network(
            star(sysm.sim, ethernet_10(), ["A", *members], rng=sysm.rng)
        )
        a = sysm.node("A")
        rx = {}
        for m in members:
            node = sysm.node(m)
            rx[m] = []
            node.mantts.register_service(
                7000, on_deliver=(lambda lst: lambda d, meta: lst.append(d))(rx[m])
            )
        return sysm, a, rx

    def test_conference_reaches_all_members(self):
        sysm, a, rx = self._conference()
        conn = a.mantts.open(acd_for("tele-conferencing", participants=("B", "C", "D")))
        sysm.run(until=2.0)
        assert conn.session is not None
        assert sysm.network.group_members(conn.group) == {"B", "C", "D"}
        for _ in range(5):
            conn.send(b"frame" * 30)
        sysm.run(until=5.0)
        assert all(len(v) == 5 for v in rx.values())

    def test_membership_and_tsc_calls_on_a_closed_handle_are_answered(self):
        sysm, a, rx = self._conference()
        conn = a.mantts.open(acd_for("tele-conferencing", participants=("B", "C")))
        sysm.run(until=2.0)
        state = conn.monitor.snapshot()
        conn.close()
        sysm.run(until=4.0)
        assert conn.session.closed
        conn.remove_member("C")
        conn.add_member("D")
        assert conn.members == ["B", "D"]
        assert conn.change_tsc("non-real-time-non-isochronous", state) is False
        assert conn.apply_overrides({"window": 4}) is False

    def test_member_leave_stops_delivery(self):
        sysm, a, rx = self._conference()
        conn = a.mantts.open(acd_for("tele-conferencing", participants=("B", "C", "D")))
        sysm.run(until=2.0)
        conn.remove_member("D")
        sysm.run(until=3.0)
        before_d = len(rx["D"])
        for _ in range(3):
            conn.send(b"x" * 50)
        sysm.run(until=6.0)
        assert len(rx["D"]) == before_d
        assert len(rx["B"]) == 3
