"""Compiled-pipeline dispatch: wall time per ``session.send()`` (§4.2.2).

The pipeline tentpole claims the Synthesis/SELF benefit: compiling the
mechanism stack into a flat stage list with closed-form per-PDU charges
makes the *host* do less work per send without changing anything the
*simulation* observes.  This benchmark measures both halves on the
§2.1(B) teleconference configuration (derived through the real Stage I/II
transform, 512-byte messages at a 50 Hz conference tick):

* **wall** — ``time.perf_counter`` around each ``session.send()`` call
  only (the simulator is advanced between sends, outside the timed
  region).  ABAB-interleaved, minimum of N rounds per side: the oracle of
  ``tests/oracles/`` against the shipped executor's *general* route
  (``general_send`` called directly, so the rendered closure never runs
  and ``fast_sends`` stays 0); the compiled pipeline must cut wall time
  per send by at least 25%.
* **simulated identity** — delivered message count/bytes, final sim
  clock, PDUs sent, retransmissions, and both hosts' retired instruction
  counters must be *bit-identical* across executors.  Compilation is a
  wall-clock optimisation, never a behaviour change.
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

ROUNDS = 5
MESSAGES = 400
SEND_INTERVAL = 0.02          #: 50 messages/s conference tick
MAX_COMPILED_RATIO = 0.75     #: >= 25% less wall time per send


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


def _run(cfg, general):
    """One conference run; (wall seconds per send, simulated identity).
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

    send = sender.executor.general_send if general else sender.executor.send
    msg = b"\xa5" * 512
    perf = time.perf_counter
    wall = 0.0
    t = 0.05
    for _ in range(MESSAGES):
        t += SEND_INTERVAL
        sim.run(until=t)
        t0 = perf()
        send(msg)
        wall += perf() - t0
    sim.run(until=t + 2.0)
    assert sender.executor.fast_sends == 0

    identity = (
        len(delivered),
        sum(delivered),
        sim.now,
        sender.stats.pdus_sent,
        sender.stats.retransmissions,
        ha.cpu.instructions_retired,
        hb.cpu.instructions_retired,
    )
    return wall / MESSAGES, identity


@pytest.mark.timing
def test_compiled_pipeline_send_is_faster(benchmark, executors):
    TELEMETRY.disable()
    TELEMETRY.reset()
    cfg = _teleconference_config()

    def measure():
        reference, compiled = [], []
        identities = set()
        for _ in range(ROUNDS):
            with executors("oracle"):
                w, ident = _run(cfg, general=False)
            reference.append(w)
            identities.add(ident)
            w, ident = _run(cfg, general=True)
            compiled.append(w)
            identities.add(ident)
        return min(reference), min(compiled), identities

    ref, comp, identities = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = comp / ref
    rows = [
        {"executor": "reference (interpreted)", "us_per_send": ref * 1e6,
         "vs_reference": 1.0},
        {"executor": "compiled pipeline (general route)", "us_per_send": comp * 1e6,
         "vs_reference": ratio},
    ]
    record(
        benchmark,
        render_table(
            rows, ["executor", "us_per_send", "vs_reference"],
            title=f"pipeline dispatch — teleconference, {MESSAGES} sends, "
                  f"min of {ROUNDS} ABAB rounds",
        ),
        ratio=ratio,
    )
    assert len(identities) == 1, (
        f"executors diverged in simulated results: {identities}"
    )
    assert ratio <= MAX_COMPILED_RATIO, (
        f"compiled send path is only {100 * (1 - ratio):.1f}% faster "
        f"(bound: {100 * (1 - MAX_COMPILED_RATIO):.0f}%)"
    )
