"""Property test: under randomized fault schedules, the shipped executor
and the reference oracle still produce bit-identical simulated worlds.

The compiler's contract (wall time only — see ``docs/pipelines.md``) must
hold not just on clean runs but through link flaps, bandwidth collapses,
BER storms, and queue squeezes: every drop, retransmission, and recovery
decision has to land on the same virtual timestamps either way.

The world is assembled on an ``AdaptiveSystem`` (MANTTS idle, the session
opened on the protocol directly) so each run can end by closing its sender
and asking ``check_quiescent()`` what the storm left behind."""

import pytest

from repro.core.system import AdaptiveSystem
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.profiles import ethernet_10, linear_path
from repro.tko.config import SessionConfig

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
    system = AdaptiveSystem(seed=seed)
    net = system.attach_network(linear_path(
        system.sim, ethernet_10(), ("A", "B"), n_switches=2, rng=system.rng))
    a, b = system.node("A"), system.node("B")
    delivered = []
    b.protocol.listen(
        7000, lambda pdu, frame: SessionConfig.from_dict(pdu.options["cfg"]),
        lambda rx: setattr(rx, "on_deliver", lambda data, meta: delivered.append(data)))
    s = a.protocol.create_session(cfg, "B", 7000)
    s.connect()
    for i in range(30):
        s.send(b"c%02d" % i + b"z" * 700)
    schedule = FaultSchedule.random(seed, LINKS, horizon=2.0, n_faults=6)
    inj = FaultInjector(system.sim, net, schedule).arm()
    system.run(until=12.0)
    identity = (
        tuple(inj.trace),
        len(delivered),
        sum(len(data) for data in delivered),
        system.now,
        s.stats.pdus_sent,
        s.stats.retransmissions,
        a.host.cpu.instructions_retired,
        b.host.cpu.instructions_retired,
        tuple(
            (link.stats.delivered, link.stats.dropped_overflow,
             link.stats.dropped_down, link.stats.corrupted)
            for _, link in sorted(net.links.items())
        ),
    )
    s.close()
    system.run(until=20.0)
    assert system.check_quiescent() == []
    return identity


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_executors_bit_identical_under_chaos(seed, executors):
    cfg = CONFIGS[list(CONFIGS)[seed % len(CONFIGS)]]
    with executors("oracle"):
        oracle = run_world(seed, cfg)
    assert oracle == run_world(seed, cfg)


def test_chaos_run_is_repeatable_within_one_executor():
    cfg = CONFIGS["gbn"]
    assert run_world(9, cfg) == run_world(9, cfg)
