"""Run-time reconfiguration tests: segue semantics and synthesizer diffs."""

import pytest

from repro.mechanisms.acknowledgment import SelectiveAck
from repro.mechanisms.retransmission import SelectiveRepeat
from repro.netsim.profiles import ethernet_10
from repro.tko.config import SessionConfig
from tests.conftest import EXECUTORS, TwoHosts


def symmetric_segue(w, slot_pairs):
    """Apply the same mechanism swaps to sender and receiver sessions."""
    for session in [w.rx_sessions[0]]:
        for slot, mech_cls in slot_pairs:
            session.segue(slot, mech_cls())


class TestSegue:
    def test_gbn_to_sr_mid_transfer_no_loss(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(8):
            s.send(b"a" * 1000)
        w.sim.run(until=0.5)
        for sess in (s, w.rx_sessions[0]):
            sess.segue("recovery", SelectiveRepeat())
            sess.segue("ack", SelectiveAck())
        for _ in range(8):
            s.send(b"b" * 1000)
        w.sim.run(until=10.0)
        assert len(w.delivered) == 16
        assert s.stats.reconfigurations == 2

    def test_segue_preserves_outstanding_queue(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(10):
            s.send(b"a" * 1000)
        # swap while data is still unacknowledged
        def swap():
            if s.state.outstanding_count() > 0:
                before = s.state.outstanding_count()
                s.segue("recovery", SelectiveRepeat())
                s.segue("ack", SelectiveAck())
                assert s.state.outstanding_count() == before

        w.sim.schedule(0.002, swap)
        w.sim.run(until=10.0)
        assert len(w.delivered) == 10

    def test_static_binding_refuses_segue(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig(binding="static"))
        with pytest.raises(RuntimeError):
            s.segue("recovery", SelectiveRepeat())

    def test_segue_charges_cpu(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        w.sim.run(until=0.5)
        before = w.ha.cpu.instructions_retired
        s.segue("recovery", SelectiveRepeat())
        s.segue("ack", SelectiveAck())
        assert w.ha.cpu.instructions_retired > before


class TestSegueUnderCompiledPipeline:
    """A mid-transfer GBN→SR swap must stay loss-free whichever executor
    runs the data path, and the compiled pipeline must agree with the
    reference oracle event for event."""

    def _gbn_to_sr_run(self, ber=0.0, seed=0):
        w = TwoHosts(profile=ethernet_10().scaled(ber=ber), seed=seed)
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(8):
            s.send(b"a" * 1000)
        observed = {}

        def swap():
            observed["before"] = s.state.outstanding_count()
            for sess in (s, w.rx_sessions[0]):
                sess.segue("recovery", SelectiveRepeat())
                sess.segue("ack", SelectiveAck())
            observed["after"] = s.state.outstanding_count()

        w.sim.schedule(0.005, swap)
        w.sim.run(until=0.5)
        for _ in range(8):
            s.send(b"b" * 1000)
        w.sim.run(until=10.0)
        return w, s, observed

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_swap_mid_transfer_delivers_every_byte(self, kind, executors):
        with executors(kind):
            w, s, observed = self._gbn_to_sr_run()
        # the retransmission queue survives the swap intact...
        assert observed["after"] == observed["before"]
        # ...and nothing in flight across the segue is lost
        assert len(w.delivered) == 16
        assert sum(len(data) for data, _ in w.delivered) == 16_000

    def test_swap_during_loss_recovery_keeps_retransmission_queue(self):
        # corrupted frames force GBN into recovery before the swap lands;
        # SelectiveRepeat adopts the queue and still delivers everything
        w, s, observed = self._gbn_to_sr_run(ber=1e-5, seed=11)
        assert observed["before"] > 0
        assert observed["after"] == observed["before"]
        assert len(w.delivered) == 16
        assert s.stats.retransmissions > 0

    def test_reference_and_compiled_agree_exactly(self, executors):
        runs = {}
        for kind in EXECUTORS:
            with executors(kind):
                w, s, _ = self._gbn_to_sr_run(ber=1e-5, seed=11)
            runs[kind] = (
                len(w.delivered),
                sum(len(data) for data, _ in w.delivered),
                s.stats.retransmissions,
                s.stats.pdus_sent,
                w.ha.cpu.instructions_retired,
                w.hb.cpu.instructions_retired,
            )
        assert runs["oracle"] == runs["shipped"]


class TestSynthesizerReconfigure:
    def test_diff_only_changed_slots(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        w.sim.run(until=0.5)
        synth = w.pa.synthesizer
        new_cfg = s.cfg.with_(recovery="sr", ack="selective")
        segued = synth.reconfigure(s, new_cfg)
        assert set(segued) == {"recovery", "ack"}
        assert s.cfg.recovery == "sr"

    def test_parameter_only_change_avoids_segue(self):
        w = TwoHosts()
        w.listen()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=100,
            ack="none", recovery="none", sequencing="none",
        )
        s = w.open(cfg)
        w.sim.run(until=0.2)
        synth = w.pa.synthesizer
        segued = synth.reconfigure(s, cfg.with_(rate_pps=500.0))
        assert segued == []
        assert s.context.transmission.rate_pps == 500.0

    def test_playout_retune_in_place(self):
        w = TwoHosts()
        w.listen()
        cfg = SessionConfig(
            connection="implicit", transmission="rate", rate_pps=100,
            ack="none", recovery="none", sequencing="none",
            jitter="playout", playout_delay=0.05,
        )
        s = w.open(cfg)
        w.sim.run(until=0.2)
        w.pa.synthesizer.reconfigure(s, cfg.with_(playout_delay=0.2))
        assert s.context.jitter.playout_delay == 0.2

    def test_retransmit_to_fec_switch_flows(self):
        """The paper's §3(C) second policy example as a raw TKO operation."""
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        for _ in range(5):
            s.send(b"x" * 500)
        w.sim.run(until=1.0)
        fec_cfg = s.cfg.with_(
            recovery="fec-xor", ack="none", transmission="rate", rate_pps=200.0
        )
        w.pa.synthesizer.reconfigure(s, fec_cfg)
        w.pb.synthesizer.reconfigure(w.rx_sessions[0], fec_cfg)
        for _ in range(8):
            s.send(b"y" * 500)
        w.sim.run(until=5.0)
        assert len(w.delivered) == 13
        assert s.stats.parity_sent > 0
