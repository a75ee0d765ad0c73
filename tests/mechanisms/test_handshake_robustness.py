"""Deterministic handshake-robustness tests.

Each test surgically drops one specific PDU where the session emits it —
``emit_control`` for the handshake (SYN family), ``emit_pdu`` for the
in-band teardown (FIN, FIN-ACK) — and verifies the state machines
recover via their retransmission timer: lost SYN, lost SYN-ACK, lost
CONFIRM, duplicate SYN, lost FIN, lost FIN-ACK.
"""


from repro.mechanisms.connection import MAX_HANDSHAKE_RETRIES
from repro.tko.config import SessionConfig
from repro.tko.ends import FIN_TIMEOUT, GRACEFUL_CLOSE
from repro.tko.pdu import PduType
from tests.conftest import TwoHosts


def drop_nth(session, ptype: PduType, n: int = 1, path: str = "emit_control"):
    """Make ``session`` silently drop its n-th PDU of ``ptype`` on ``path``."""
    original = getattr(session, path)
    state = {"seen": 0}

    def filtered(pdu):
        if pdu.ptype is ptype:
            state["seen"] += 1
            if state["seen"] == n:
                return  # dropped on the floor
        original(pdu)

    setattr(session, path, filtered)
    return state


class TestLostHandshakePdus:
    def test_lost_syn_is_retransmitted(self):
        w = TwoHosts()
        w.listen()
        connected = []
        s = w.pa.create_session(
            SessionConfig(connection="explicit-3way"), "B", 7000,
            on_connected=lambda: connected.append(w.sim.now),
        )
        dropped = drop_nth(s, PduType.SYN, n=1)
        s.connect()
        w.sim.run(until=10.0)
        assert connected, "handshake never completed after SYN loss"
        assert dropped["seen"] >= 1
        assert s.stats.control_retransmissions >= 1
        # the retry costs at least one initial RTO
        assert connected[0] >= s.cfg.rto_initial

    def test_lost_synack_recovered_by_syn_retry(self):
        w = TwoHosts()
        w.listen()
        s = w.pa.create_session(SessionConfig(connection="explicit-2way"), "B", 7000)
        s.connect()
        # run just long enough for the responder session to exist
        w.sim.run(until=0.002)
        rx = w.rx_sessions[0]
        # too late to drop the first SYN-ACK; instead verify duplicate SYN
        # handling: a re-sent SYN must be re-acknowledged, not ignored
        syn = s.make_pdu(PduType.SYN)
        syn.options["cfg"] = s.cfg.to_dict()
        before = rx.stats.pdus_sent
        rx.context.connection.handle_control(syn)
        assert rx.stats.pdus_sent == before + 1  # a fresh SYN-ACK went out

    def test_lost_confirm_responder_retries_synack(self):
        w = TwoHosts()
        w.listen(SessionConfig(connection="explicit-3way"))
        s = w.pa.create_session(SessionConfig(connection="explicit-3way"), "B", 7000)
        dropped = drop_nth(s, PduType.CONFIRM, n=1)
        s.connect()
        w.sim.run(until=10.0)
        # initiator opened on SYN-ACK; responder, whose CONFIRM was lost,
        # must also have reached the open state via its SYN-ACK retry
        rx = w.rx_sessions[0]
        assert rx.context.connection.connected
        assert dropped["seen"] >= 1
        s.send(b"after recovery")
        w.sim.run(until=12.0)
        assert len(w.delivered) == 1

    def test_fin_ack_loss_does_not_wedge_peer(self):
        w = TwoHosts()
        w.listen()
        ended = []
        s = w.open(SessionConfig(connection="explicit-2way"), on_ended=ended.append)
        s.send(b"payload")
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        # FIN and FIN-ACK travel in-band: drop the responder's FIN-ACK there
        dropped = drop_nth(rx, PduType.FIN_ACK, n=1, path="emit_pdu")
        s.close()
        w.sim.run(until=120.0)
        assert dropped["seen"] == 1
        # the responder ended when it answered; the closer's FIN retries
        # find no session, and it gives up after the SYN timer's backoff
        assert rx.closed
        assert ended == [FIN_TIMEOUT] and s.stats.aborted == FIN_TIMEOUT
        rto = s.cfg.rto_initial
        assert s.stats.closed_at - 1.0 <= rto * 2 ** (MAX_HANDSHAKE_RETRIES + 1) + 0.1
        assert s.stats.control_retransmissions == MAX_HANDSHAKE_RETRIES
        assert w.ha.ports.demux(s.local_port, "B", 7000) is None

    def test_lost_fin_is_retransmitted(self):
        w = TwoHosts()
        w.listen()
        ended = []
        s = w.open(SessionConfig(connection="explicit-2way"), on_ended=ended.append)
        s.send(b"payload")
        w.sim.run(until=1.0)
        rx = w.rx_sessions[0]
        dropped = drop_nth(s, PduType.FIN, n=1, path="emit_pdu")
        s.close()
        w.sim.run(until=10.0)
        # the second FIN reaches the peer: both ends close gracefully
        assert dropped["seen"] == 2 and s.stats.control_retransmissions == 1
        assert ended == [GRACEFUL_CLOSE] and s.stats.aborted is None
        assert rx.closed and rx.stats.aborted is None


class TestHandshakeGiveUp:
    def test_syn_retries_then_open_failed(self):
        w = TwoHosts()
        w.listen()
        failures = []
        s = w.pa.create_session(
            SessionConfig(connection="explicit-3way"), "B", 7000,
            on_ended=failures.append,
        )
        # drop every SYN: the initiator must give up, not spin forever
        original = s.emit_control
        s.emit_control = lambda pdu: (
            None if pdu.ptype is PduType.SYN else original(pdu)
        )
        s.connect()
        w.sim.run(until=120.0)
        assert failures and "timeout" in failures[0]
        assert s.closed
