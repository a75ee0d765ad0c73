"""Gate: what a hop costs the kernel.

One event when the wire is free (the landing, which already includes the
far node's switching latency), two when the frame had to wait (plus the
drain that clocked it on).  Counted on ``host - 3 switches - host``, four
hops, with nothing else in the world scheduling events; the arrival
instant is the three-addition sum a per-stage model makes, in its order.
"""

from repro.netsim.frame import Frame
from repro.netsim.profiles import fddi_100, linear_path
from repro.unites.obs.telemetry import TELEMETRY
from tests.conftest import kernel_handler_labels

HOPS = 4
N = 25


def path(sim):
    net = linear_path(sim, fddi_100().scaled(ber=0.0), n_switches=HOPS - 1)
    got = []
    net.attach_host("B", lambda f: got.append((f.id, sim.now, f.hops)))
    return net, got


def test_spaced_frames_cost_one_event_per_hop(sim):
    net, got = path(sim)
    link = net.links[("A", "s1")]
    for _ in range(N):
        start = sim.now
        net.send(Frame("A", "B", 1000))
        sim.run()  # to quiescence: the next frame finds every wire free
        # three additions per hop, grouped as a per-stage model makes them
        when = start
        for _hop in range(HOPS):
            when = ((when + 1000 * 8.0 / link.bandwidth_bps) + link.delay) + 5e-6
        assert got[-1][1:] == (when, HOPS)
    assert len(got) == N
    assert sim.events_dispatched == HOPS * N


def test_back_to_back_frames_cost_at_most_two(sim):
    net, got = path(sim)
    frames = [Frame("A", "B", 1000) for _ in range(N)]
    for frame in frames:
        net.send(frame)
    sim.run()
    assert [fid for fid, _, _ in got] == [f.id for f in frames]
    # every frame but the first waits at the first hop; further down the
    # pipeline a frame reaches a wire at the instant it frees, give or take
    # an ulp, so it may or may not have to wait
    assert HOPS * N + (N - 1) <= sim.events_dispatched <= 2 * HOPS * N


def test_the_kernel_sees_two_handler_names(sim):
    net, _got = path(sim)
    TELEMETRY.enable(sim=sim)
    try:
        for _ in range(3):
            net.send(Frame("A", "B", 1000))
        sim.run()
        handlers = kernel_handler_labels()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    assert handlers == {"Link._land", "Link._drain"}
