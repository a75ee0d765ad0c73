"""A responder session ends through the same path however it ends.

The world loses every CONFIRM, so B's explicit-3way responder waits in
``syn-rcvd`` while A, which saw the SYN-ACK, is open.  B either gives the
handshake up or is torn down with its node; both ends must release B's
peer-session entry, port and reservation, and A's FIN, which then reaches
no session, must end A after its retries instead of leaving it closing.
"""

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko import ends
from repro.tko.config import SessionConfig
from repro.tko.pdu import PduType
from tests.conftest import SETTLE_S


def confirmless_world():
    system = AdaptiveSystem(seed=0)
    net = system.attach_network(
        linear_path(system.sim, ethernet_10(), ("A", "B"), rng=system.rng))
    a, b = system.node("A"), system.node("B")
    b.mantts.register_service(7000)
    send = net.send

    def lose_confirms(frame):
        if getattr(frame.payload, "ptype", None) is not PduType.CONFIRM:
            send(frame)

    net.send = lose_confirms  # before the first send binds it
    return system, a, b


def open_raw(a, ended):
    s = a.protocol.create_session(
        SessionConfig(connection="explicit-3way"), "B", 7000, on_ended=ended.append)
    s.connect()
    return s


def test_responder_that_gives_up_in_syn_rcvd_leaves_nothing():
    system, a, b = confirmless_world()
    a_ended = []
    s = open_raw(a, a_ended)
    system.run(until=1.0)
    [rx] = b.mantts._peer_sessions.values()
    assert s.connected and rx.context.connection.state == "syn-rcvd"
    system.run(until=SETTLE_S)
    assert rx.closed and rx.stats.aborted == f"{ends.HANDSHAKE_TIMEOUT}: syn-rcvd"
    s.close()
    system.run(until=2 * SETTLE_S)
    assert a_ended == [ends.FIN_TIMEOUT]
    assert system.check_quiescent() == []


def test_node_teardown_in_syn_rcvd_releases_the_same():
    system, a, b = confirmless_world()
    a_ended = []
    s = open_raw(a, a_ended)
    system.run(until=1.0)
    [rx] = b.mantts._peer_sessions.values()
    system.teardown_node("B")
    assert rx.closed and rx.stats.aborted.startswith(ends.PEER_DEAD)
    assert b.mantts._peer_sessions == {} and list(b.host.ports.owners()) == []
    s.close()
    system.run(until=SETTLE_S)
    assert a_ended == [ends.FIN_TIMEOUT]
    assert system.check_quiescent() == []


def test_negotiated_responder_gives_its_reservation_back():
    """Through MANTTS: B admitted the open, its data session claimed the
    reservation, and the handshake then died in ``syn-rcvd``."""
    system, a, b = confirmless_world()
    acd = ACD(participants=("B",), service_port=7000,
              quantitative=QuantitativeQoS(avg_throughput_bps=400e3, duration=600),
              qualitative=QualitativeQoS())
    closed = []
    conn = a.mantts.open(acd, on_closed=lambda: closed.append(True))
    system.run(until=1.0)
    assert conn.cfg.connection == "explicit-3way" and conn._established
    assert b.mantts.resources.reserved_bps > 0
    system.run(until=SETTLE_S)
    assert b.mantts.resources.reserved_bps == 0 and b.mantts._peer_sessions == {}
    conn.close()
    system.run(until=2 * SETTLE_S)
    assert closed == [True] and not conn._failed
    assert a.mantts.manager.ends_by_reason == {ends.FIN_TIMEOUT: 1}
    assert system.check_quiescent() == []
