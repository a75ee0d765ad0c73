"""Bytes-plane fast path: rendered-closure per-send latency (Issue 9).

``repro.tko.genexec`` renders one specialized send closure per
``SessionConfig`` — stage bodies inlined, charge scalars folded, no
per-stage loop — whose guard hands anything it does not specialize for to
the executor's general route.  This benchmark proves three things on
the §2.1(B) teleconference configuration (the richest SCS that runs the
fast path: tracked + retransmit + Internet-checksum trailer):

* **engagement** — every timed send must take the rendered closure
  (``executor.fast_sends == sends``), and none on the side that calls
  ``general_send`` directly; without this the latency numbers would
  silently measure the fallback.
* **latency** — p50 wall time per send must beat the general route by
  >= 1.5x, p99 by at least no-worse-than +10%.
* **identity** — delivered count/bytes, final sim clock, PDUs sent,
  retransmissions, and both hosts' retired instruction counters must be
  bit-identical across the two routes.  Codegen is a wall-clock
  optimisation, never a behaviour change.
"""

import time

import pytest

from repro.host.nic import Host
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import APP_PROFILES
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.tko.protocol import TKOProtocol
from repro.unites.obs.telemetry import TELEMETRY
from repro.unites.present import render_table

from benchmarks.conftest import record

ROUNDS = 3
MESSAGES = 400
SEND_INTERVAL = 0.02            #: 50 messages/s conference tick
MIN_P50_SPEEDUP = 1.50          #: rendered p50 must beat general by 1.5x
MAX_P99_RATIO = 1.10            #: rendered p99 no worse than general +10%


def _teleconference_config():
    """Derive the teleconference SCS through the real Stage I/II path."""
    profile = APP_PROFILES["tele-conferencing"]
    acd = ACD(
        participants=("B",),
        quantitative=profile.quantitative(),
        qualitative=profile.qualitative(),
    )
    lan = NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3)
    return specify_scs(acd, lan).config


def _percentile(sorted_samples, q):
    idx = min(len(sorted_samples) - 1, max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[idx]


def _run(cfg, general):
    """One conference run; (per-send samples, identity, fast_sends).
    ``general`` times the executor's general route instead of ``send``."""
    sim = Simulator()
    rng = RngStreams(5)
    net = linear_path(sim, ethernet_10(), ("A", "B"), n_switches=2, rng=rng)
    ha = Host(sim, net, "A", mips=25.0)
    hb = Host(sim, net, "B", mips=25.0)
    pa = TKOProtocol(ha)
    pb = TKOProtocol(hb)
    delivered = []

    def on_session(s):
        s.on_deliver = lambda data, meta: delivered.append(len(data))

    pb.listen(7000, lambda pdu, frame: cfg, on_session)
    sender = pa.create_session(cfg, "B", 7000)
    sender.connect()
    sim.run(until=0.05)

    send = sender.executor.general_send if general else sender.send
    msg = b"\xa5" * 512
    perf = time.perf_counter
    samples = []
    t = 0.05
    for _ in range(MESSAGES):
        t += SEND_INTERVAL
        sim.run(until=t)
        t0 = perf()
        send(msg)
        samples.append(perf() - t0)
    sim.run(until=t + 2.0)

    identity = (
        len(delivered),
        sum(delivered),
        sim.now,
        sender.stats.pdus_sent,
        sender.stats.retransmissions,
        ha.cpu.instructions_retired,
        hb.cpu.instructions_retired,
    )
    return samples, identity, sender.executor.fast_sends


@pytest.mark.timing
def test_generated_send_latency(benchmark):
    TELEMETRY.disable()
    TELEMETRY.reset()
    cfg = _teleconference_config()

    def measure():
        comp_rounds, gen_rounds = [], []
        identities = set()
        fast = None
        for _ in range(ROUNDS):
            samples, ident, general_fast = _run(cfg, general=True)
            assert general_fast == 0
            comp_rounds.append(samples)
            identities.add(ident)
            samples, ident, fast = _run(cfg, general=False)
            gen_rounds.append(samples)
            identities.add(ident)
        # each send's best case across rounds, then percentiles
        comp = sorted(min(col) for col in zip(*comp_rounds))
        gen = sorted(min(col) for col in zip(*gen_rounds))
        return comp, gen, identities, fast

    comp, gen, identities, fast = benchmark.pedantic(measure, rounds=1, iterations=1)
    comp_p50, comp_p99 = _percentile(comp, 0.50), _percentile(comp, 0.99)
    gen_p50, gen_p99 = _percentile(gen, 0.50), _percentile(gen, 0.99)
    speedup = comp_p50 / gen_p50
    p99_ratio = gen_p99 / comp_p99
    rows = [
        {"executor": "general route", "p50_us": comp_p50 * 1e6,
         "p99_us": comp_p99 * 1e6, "speedup": 1.0},
        {"executor": "rendered closure", "p50_us": gen_p50 * 1e6,
         "p99_us": gen_p99 * 1e6, "speedup": speedup},
    ]
    record(
        benchmark,
        render_table(
            rows, ["executor", "p50_us", "p99_us", "speedup"],
            title=f"bytes-plane send latency — teleconference, {MESSAGES} "
                  f"sends, min of {ROUNDS} ABAB rounds",
        ),
        ratio=1.0 / speedup,
    )
    assert fast == MESSAGES, (
        f"generated fast path engaged on only {fast}/{MESSAGES} sends — "
        f"the latency comparison would be measuring the fallback"
    )
    assert len(identities) == 1, (
        f"executors diverged in simulated results: {identities}"
    )
    assert speedup >= MIN_P50_SPEEDUP, (
        f"generated p50 speedup {speedup:.2f}x below the "
        f"{MIN_P50_SPEEDUP}x bar"
    )
    assert p99_ratio <= MAX_P99_RATIO, (
        f"rendered p99 is {p99_ratio:.2f}x general (bound {MAX_P99_RATIO}x)"
    )
