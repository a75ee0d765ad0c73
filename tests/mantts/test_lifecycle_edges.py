"""Edge-hardening tests for the ConnectionLifecycle terminal transitions.

The establishment state machine must stay single-shot no matter how its
callbacks interleave: a failure before ``begin()`` (spans still NULL), a
negotiation reply arriving after the timeout already failed the attempt,
and a second ``ended()`` must each produce exactly one application callback
and exactly one ended telemetry span."""

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.api import AdaptiveConnection
from repro.mantts.lifecycle import NEGOTIATION_TIMEOUT
from repro.mantts.negotiation import encode
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko.ends import GRACEFUL_CLOSE
from repro.unites.obs.telemetry import TELEMETRY


def world(seed=0):
    sysm = AdaptiveSystem(seed=seed)
    sysm.attach_network(linear_path(sysm.sim, ethernet_10(), ("A", "B"), rng=sysm.rng))
    return sysm, sysm.node("A"), sysm.node("B")


def late_accept(node, conn):
    """B's accept of the first attempt, arriving after the open ended:
    handed to A's signalling input exactly as it would come off the wire."""
    node.mantts._handle_signalling(encode({
        "type": "open-accept", "ref": f"{conn.ref}:B:first", "from": "B",
        "config": conn.scs.config.to_dict()}), None)


def explicit_acd():
    # loss_tolerance=0 + long duration => explicit negotiation (Stage II)
    return ACD(
        participants=("B",),
        quantitative=QuantitativeQoS(avg_throughput_bps=400e3, duration=600),
        qualitative=QualitativeQoS(),
    )


class TestFailBeforeBegin:
    def test_fail_before_begin_fires_once_and_tolerates_null_spans(self):
        sysm, a, b = world()
        failures, connects, closes = [], [], []
        conn = AdaptiveConnection(
            a.mantts,
            explicit_acd(),
            on_failed=failures.append,
            on_connected=connects.append,
            on_closed=lambda: closes.append(True),
        )
        # begin() never ran: both spans are still NULL_SPAN and must be
        # end()-able without blowing up
        conn.lifecycle.ended("aborted before establishment")
        assert failures == ["aborted before establishment"]
        assert conn._failed and not conn._established
        # terminal guards: nothing may resurrect or re-report the attempt
        conn.lifecycle.connected()
        conn.lifecycle.ended(GRACEFUL_CLOSE)
        conn.lifecycle.ended("again")
        assert failures == ["aborted before establishment"]
        assert connects == [] and closes == []

    def test_double_fail_keeps_first_reason(self):
        sysm, a, b = world()
        failures = []
        conn = AdaptiveConnection(a.mantts, explicit_acd(), on_failed=failures.append)
        conn.lifecycle.ended("first")
        conn.lifecycle.ended("second")
        assert failures == ["first"]


class TestLateReplyAfterTimeout:
    def _timed_out_world(self):
        sysm, a, b = world(seed=2)
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        failures, connects = [], []
        conn = a.mantts.open(
            explicit_acd(), on_failed=failures.append, on_connected=connects.append
        )
        assert conn.session is None  # negotiation is in flight
        # cut the path before the open-request can cross it
        sysm.sim.schedule(1e-6, sysm.network.fail_link, "A", "s1")
        sysm.run(until=NEGOTIATION_TIMEOUT + 1.0)
        assert failures == [
            "negotiation timed out waiting for ['B']"
        ] or failures[0].startswith("negotiation timed out")
        assert len(failures) == 1
        return sysm, a, conn, failures, connects

    def test_late_accept_cannot_resurrect_failed_connection(self):
        sysm, a, conn, failures, connects = self._timed_out_world()
        late_accept(a, conn)
        assert not conn._established
        assert connects == []
        assert len(failures) == 1

    def test_failed_connection_is_deregistered(self):
        sysm, a, conn, failures, connects = self._timed_out_world()
        assert conn.ref not in a.mantts.connections

    def test_failed_open_drops_its_reply_handlers(self):
        sysm, a, conn, failures, connects = self._timed_out_world()
        assert not a.mantts._pending
        assert not [v for v in sysm.check_quiescent() if "reply handler" in v]
        # one left behind is named as a leak of the ended connection
        a.mantts._pending[f"{conn.ref}:B:first"] = lambda msg: None
        assert (f"reply handler {conn.ref}:B:first of ended connection {conn.ref}"
                in sysm.check_quiescent())

    def test_double_connected_fires_callback_once(self):
        sysm, a, b = world(seed=3)
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        connects = []
        conn = a.mantts.open(explicit_acd(), on_connected=connects.append)
        sysm.run(until=2.0)
        assert conn._established and len(connects) == 1
        conn.lifecycle.connected()  # duplicate success signal
        assert len(connects) == 1


class TestSpansEndExactlyOnce:
    def test_timeout_fail_then_late_reply_ends_each_span_once(self):
        sysm, a, b = world(seed=4)
        TELEMETRY.enable(sysm.sim)
        try:
            b.mantts.register_service(7000, on_deliver=lambda d, m: None)
            failures = []
            conn = a.mantts.open(explicit_acd(), on_failed=failures.append)
            sysm.sim.schedule(1e-6, sysm.network.fail_link, "A", "s1")
            sysm.run(until=NEGOTIATION_TIMEOUT + 1.0)
            assert len(failures) == 1
            setup_spans = TELEMETRY.spans_named("connection-setup")
            nego_spans = TELEMETRY.spans_named("negotiation")
            assert len(setup_spans) == 1 and len(nego_spans) == 1
            assert setup_spans[0].args["outcome"] == "failed"
            # stress the terminal guards: none of these may buffer another
            # ended span for the same establishment
            conn.lifecycle.ended("again")
            conn.lifecycle.connected()
            late_accept(a, conn)
            assert len(TELEMETRY.spans_named("connection-setup")) == 1
            assert len(TELEMETRY.spans_named("negotiation")) == 1
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()


class TestCloseWhileNegotiating:
    """``close()`` before Stage III built the session ends the open: once,
    as a graceful close, and the responder gives back what it admitted."""

    @pytest.mark.parametrize("at", [0.0, 0.004])  # before / after B admits
    def test_close_ends_the_open_and_releases_the_responder(self, at):
        sysm, a, b = world()
        b.mantts.register_service(7000, on_deliver=lambda d, m: None)
        connects, closes, failures, seen = [], [], [], []
        conn = a.mantts.open(explicit_acd(), on_connected=connects.append,
                             on_closed=lambda: closes.append(sysm.sim.now),
                             on_failed=failures.append)
        assert conn.cfg.connection == "explicit-3way"

        def close():
            seen.append((conn.session, b.mantts.manager.admission_accepted))
            conn.close()
            conn.close()  # a second close finds nothing left to end

        sysm.sim.schedule(at, close)
        sysm.run(until=60.0)
        assert seen == [(None, int(at > 0))]
        assert closes == [at] and connects == [] and failures == []
        assert conn.session is None and not conn._failed
        assert a.mantts.manager.ends_by_reason == {GRACEFUL_CLOSE: 1}
        assert b.mantts.manager.admission_accepted == 1
        rm = b.mantts.resources
        assert (rm.reserved_bps, rm.reserved_buffer) == (0, 0)
        assert not b.mantts._unclaimed and not b.mantts._peer_sessions
        assert sysm.check_quiescent() == []
