"""Property test: the audit plane is a pure observer.  Conformance
verdicts and violation traces must be bit-identical under the shipped
executor and the oracle and equal to the frozen values in
``tests/golden.py`` — and enabling the auditor must not change the
simulated world at all.  (The auditor attaches a session observer, so the
shipped side runs its general send route throughout.)"""

import json

import pytest

from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.tko.config import SessionConfig
from repro.unites.obs.audit import AUDIT, QoSContract
from repro.unites.obs.telemetry import TELEMETRY
from tests import golden
from tests.conftest import EXECUTORS, TwoHosts

#: the undirected links of the TwoHosts linear path A-s1-s2-B
LINKS = [("A", "s1"), ("s1", "s2"), ("s2", "B")]


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


def audit_trace(auditor):
    """Everything the auditor concluded, in comparable form."""
    return (
        tuple(v.astuple() for v in auditor.violations),
        auditor.closed_windows,
        auditor.evaluated_windows,
        auditor.violating_windows,
        json.dumps(auditor.scorecard(), sort_keys=True, default=str),
        tuple(sorted(auditor.checked.items())),
    )


def run_chaos_world(seed: int):
    try:
        AUDIT.reset()
        AUDIT.enable(window=0.25, warmup_windows=1, loss_grace=1.0)
        w = TwoHosts(seed=seed)
        w.listen()
        s = w.open(SessionConfig())
        contract = QoSContract(
            connection=f"chaos-{seed}",
            avg_throughput_bps=100e3,
            peak_throughput_bps=100e3,
            max_latency=1.0,
            max_jitter=0.5,
            loss_tolerance=0.0,
            ordered=True,
            captured_at=w.sim.now,
        )
        auditor = AUDIT.attach_session(s, contract)
        for i in range(30):
            s.send(b"c%02d" % i + b"z" * 700)
        schedule = FaultSchedule.random(seed, LINKS, horizon=2.0, n_faults=6)
        FaultInjector(w.sim, w.net, schedule).arm()
        w.sim.run(until=12.0)
        AUDIT.finalize()
        world_digest = (
            len(w.delivered),
            sum(len(data) for data, _ in w.delivered),
            w.sim.now,
            s.stats.pdus_sent,
            s.stats.retransmissions,
        )
        return audit_trace(auditor), world_digest
    finally:
        AUDIT.disable()
        AUDIT.reset()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdicts_bit_identical_across_executors(seed, executors):
    runs = {}
    for kind in EXECUTORS:
        with executors(kind):
            runs[kind] = run_chaos_world(seed)
    assert runs["oracle"] == runs["shipped"]
    trace, world = runs["oracle"]
    assert (golden.verdict_digest(trace), world) == golden.AUDIT_CHAOS_WORLD[seed]


def test_auditor_does_not_perturb_the_world():
    """The same chaos run with and without the auditor attached must
    produce the identical simulated world (pure-observer property)."""

    def world_digest(audited: bool, seed: int = 4):
        AUDIT.reset()
        if audited:
            AUDIT.enable(window=0.25)
        w = TwoHosts(seed=seed)
        w.listen()
        s = w.open(SessionConfig())
        if audited:
            AUDIT.attach_session(
                s,
                QoSContract(
                    connection="p", avg_throughput_bps=100e3,
                    peak_throughput_bps=100e3, max_latency=1.0,
                    max_jitter=0.5, loss_tolerance=0.0, ordered=True,
                    captured_at=0.0,
                ),
            )
        for i in range(20):
            s.send(b"m%02d" % i + b"z" * 500)
        schedule = FaultSchedule.random(4, LINKS, horizon=2.0, n_faults=5)
        FaultInjector(w.sim, w.net, schedule).arm()
        w.sim.run(until=10.0)
        digest = (
            len(w.delivered),
            sum(len(d) for d, _ in w.delivered),
            w.sim.now,
            s.stats.pdus_sent,
            s.stats.retransmissions,
            w.ha.cpu.instructions_retired,
            w.hb.cpu.instructions_retired,
        )
        AUDIT.disable()
        AUDIT.reset()
        return digest

    assert (world_digest(audited=False) == world_digest(audited=True)
            == golden.AUDIT_OBSERVER_WORLD)
