"""Tests for the UNITES system report and per-mechanism cost breakdown."""

import pytest

from repro.tko.config import SessionConfig
from repro.unites.collect import UNITES
from tests.conftest import TwoHosts


class TestReport:
    def test_empty_report(self, sim):
        assert "no metrics" in UNITES(sim).report()

    def test_report_has_all_scopes(self):
        w = TwoHosts()
        w.listen()
        s = w.open(SessionConfig())
        unites = UNITES(w.sim)
        unites.watch_session(s, "conn-1", metrics=["rtt", "retransmissions"],
                             interval=0.1)
        unites.watch_host(w.ha, interval=0.1)
        for _ in range(5):
            s.send(b"x" * 500)
        w.sim.run(until=1.0)
        report = unites.report()
        assert "per-connection" in report
        assert "per-host" in report
        assert "systemwide" in report
        assert "conn-1" in report and "A" in report

    def test_system_scope_averages(self):
        w = TwoHosts()
        w.listen()
        unites = UNITES(w.sim)
        s1, s2 = w.open(SessionConfig()), w.open(SessionConfig())
        unites.watch_session(s1, "c1", metrics=["acks_sent"], interval=0.1)
        unites.watch_session(s2, "c2", metrics=["acks_sent"], interval=0.1)
        s1.send(b"x")
        w.sim.run(until=1.0)
        report = unites.report()
        assert "system" in report


class TestCostBreakdown:
    def _session(self, cfg=None):
        w = TwoHosts()
        w.listen()
        s = w.open(cfg or SessionConfig())
        w.sim.run(until=0.5)
        return s

    def _breakdown(self, s, nbytes=1000):
        return s.executor.pipeline.breakdown(nbytes, s.cfg.compact_headers)

    def test_breakdown_covers_all_slots(self):
        s = self._session()
        # read on 26748a6, where a CostModel walked send_cost()/recv_cost()
        assert self._breakdown(s) == {
            "os-fixed": 860.0, "connection": 60.0, "transmission": 80.0,
            "detection": 2080.0, "recovery": 130.0, "sequencing": 90.0,
            "delivery": 20.0, "buffer": 60.0, "jitter": 0.0, "dispatch": 240.0,
        }

    def test_detection_dominates_large_pdus(self):
        s = self._session()
        b = self._breakdown(s, nbytes=8000)
        mech_costs = {k: v for k, v in b.items() if k not in ("os-fixed", "dispatch")}
        assert max(mech_costs, key=mech_costs.get) == "detection"

    def test_breakdown_sums_close_to_charges(self):
        s = self._session()
        pipe = s.executor.pipeline
        b = self._breakdown(s)
        send_crit, send_def = pipe.send_charge(1000)
        recv_crit, recv_def = pipe.recv_charge(1000, s.cfg.compact_headers)
        total_breakdown = sum(b.values())
        total_charges = send_crit + send_def + recv_crit + recv_def
        # ack slot is in neither charge path (it costs on its own PDUs),
        # so the breakdown can only exceed the charge sum by that much
        assert total_breakdown == pytest.approx(
            total_charges + b.get("ack", 0.0), rel=0.01
        )

    def test_static_binding_zeroes_dispatch(self):
        s = self._session(SessionConfig(binding="static"))
        assert self._breakdown(s)["dispatch"] == 0.0
        s2 = self._session(SessionConfig(binding="dynamic"))
        assert self._breakdown(s2)["dispatch"] > 0.0
