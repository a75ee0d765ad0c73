"""Property test: under randomized fault schedules, the shipped executor
and the reference oracle still produce bit-identical simulated worlds.

The compiler's contract (wall time only — see ``docs/pipelines.md``) must
hold not just on clean runs but through link flaps, bandwidth collapses,
BER storms, and queue squeezes: every drop, retransmission, and recovery
decision has to land on the same virtual timestamps either way."""

import pytest

from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.tko.config import SessionConfig
from tests.conftest import TwoHosts

#: the undirected links of the TwoHosts linear path A-s1-s2-B
LINKS = [("A", "s1"), ("s1", "s2"), ("s2", "B")]

CONFIGS = {
    "gbn": SessionConfig(),
    "sr": SessionConfig(ack="selective", recovery="sr"),
    "rate-unreliable": SessionConfig(
        connection="implicit", transmission="rate", rate_pps=500.0,
        ack="none", recovery="none", sequencing="none",
    ),
}


def run_world(seed: int, cfg: SessionConfig):
    w = TwoHosts(seed=seed)
    w.listen()
    s = w.open(cfg)
    for i in range(30):
        s.send(b"c%02d" % i + b"z" * 700)
    schedule = FaultSchedule.random(seed, LINKS, horizon=2.0, n_faults=6)
    inj = FaultInjector(w.sim, w.net, schedule).arm()
    w.sim.run(until=12.0)
    return (
        tuple(inj.trace),
        len(w.delivered),
        sum(len(data) for data, _ in w.delivered),
        w.sim.now,
        s.stats.pdus_sent,
        s.stats.retransmissions,
        w.ha.cpu.instructions_retired,
        w.hb.cpu.instructions_retired,
        tuple(
            (link.stats.delivered, link.stats.dropped_overflow,
             link.stats.dropped_down, link.stats.corrupted)
            for _, link in sorted(w.net.links.items())
        ),
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_executors_bit_identical_under_chaos(seed, executors):
    cfg = CONFIGS[list(CONFIGS)[seed % len(CONFIGS)]]
    with executors("oracle"):
        oracle = run_world(seed, cfg)
    assert oracle == run_world(seed, cfg)


def test_chaos_run_is_repeatable_within_one_executor():
    cfg = CONFIGS["gbn"]
    assert run_world(9, cfg) == run_world(9, cfg)
