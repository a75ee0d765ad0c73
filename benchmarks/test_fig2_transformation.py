"""Figure 2 — the MANTTS three-stage transformation model.

Measures the cost of each stage (QoS→TSC, TSC→SCS, SCS→session) and the
claim of §4.1.1/§4.2.2 that the template cache cuts configuration delay:
"the benefits of a dynamically configured architecture are reduced if the
configuration ... process is overly time-consuming", so TKO_Templates
"reduce the complexity and duration of the connection negotiation phase".

Shape: instantiating a session with a warm template cache must charge the
host CPU several times fewer instructions than a cold full synthesis, and
a static template must be cheaper still.  The charged model is not the
only place the claim has to hold: a hit must also cost the *host running
the reproduction* less than a miss (a hit stamps shared compiled
artefacts; a miss composes, compiles and warms) — asserted as a ratio of
medians, never as absolute microseconds.
"""

import statistics
from time import perf_counter

import pytest

from repro.host.nic import Host
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import APP_PROFILES, select_tsc
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator
from repro.tko.protocol import TKOProtocol
from repro.tko.synthesizer import TKOSynthesizer
from repro.tko.templates import TemplateCache
from repro.unites.present import render_table

from benchmarks.conftest import record

PATH = NetworkState(
    src="A", dst="B", reachable=True, rtt=0.004, base_rtt=0.004,
    bottleneck_bps=10e6, mtu=1500, ber=1e-6, congestion=0.0,
    loss_rate=0.0, hops=3,
)


def instantiation_cost(binding: str, warm: bool) -> float:
    """Host instructions charged to set up one session."""
    sim = Simulator()
    net = linear_path(sim, ethernet_10(), ("A", "B"))
    host = Host(sim, net, "A")
    cache = TemplateCache()
    synth = TKOSynthesizer(cache)
    protocol = TKOProtocol(host, synth)
    p = APP_PROFILES["file-transfer"]
    acd = ACD(participants=("B",), quantitative=p.quantitative(),
              qualitative=p.qualitative())
    cfg = specify_scs(acd, PATH, binding=binding).config
    if warm:
        cache.store(cfg)
    before = host.cpu.instructions_retired
    s = protocol.create_session(cfg, "B", 7000)
    sim.run(until=0.001)
    return host.cpu.instructions_retired - before


#: a template hit must take at most this share of a miss's host time
#: (measured 0.34 on a 2-vCPU py3.11 box; 0.47 before hits shared the
#: compiled pipeline — docs/performance.md, "Session instantiation")
HIT_OVER_MISS_HOST_TIME = 0.6


def instantiation_host_time(samples: int = 300):
    """Median wall seconds of one ``instantiate``: (miss, hit).

    Each sample pairs the first session of a fresh template cache (the
    miss) with the second (the hit), same host, same configuration.
    """
    sim = Simulator()
    host = Host(sim, linear_path(sim, ethernet_10(), ("A", "B")), "A")
    p = APP_PROFILES["file-transfer"]
    acd = ACD(participants=("B",), quantitative=p.quantitative(),
              qualitative=p.qualitative())
    cfg = specify_scs(acd, PATH).config
    miss, hit = [], []
    for i in range(samples):
        synth = TKOSynthesizer(TemplateCache())
        for taken in (miss, hit):
            t0 = perf_counter()
            session = synth.instantiate(host, cfg, i, 9000, "B", 7000)
            taken.append(perf_counter() - t0)
            session.abort("sampled")
    return statistics.median(miss), statistics.median(hit)


def run_experiment():
    rows = []
    variants = [
        ("stage III: cold (full dynamic synthesis)", "dynamic", False),
        ("stage III: warm reconfigurable template", "reconfigurable", True),
        ("stage III: warm static template", "static", True),
    ]
    costs = {}
    for label, binding, warm in variants:
        cost = instantiation_cost(binding, warm)
        costs[label] = cost
        rows.append({"path": label, "instructions": cost})

    # stage I+II are pure computation; report their Python wall cost
    import time

    p = APP_PROFILES["tele-conferencing"]
    acd = ACD(participants=("B", "C"), quantitative=p.quantitative(),
              qualitative=p.qualitative())
    t0 = time.perf_counter()
    for _ in range(200):
        tsc = select_tsc(acd)           # Stage I
        specify_scs(acd, PATH, tsc=tsc)  # Stage II
    stage12_us = (time.perf_counter() - t0) / 200 * 1e6
    rows.append({"path": "stage I+II (host-side computation)",
                 "instructions": f"{stage12_us:.0f} us wall"})
    miss_s, hit_s = instantiation_host_time()
    rows.append({"path": "stage III host time: template miss / hit",
                 "instructions": f"{miss_s * 1e6:.0f} / {hit_s * 1e6:.0f} us wall "
                                 f"(hit = {hit_s / miss_s:.2f} of a miss)"})
    return rows, costs


def test_fig2_transformation_stages(benchmark):
    rows, costs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(
        benchmark,
        render_table(rows, ["path", "instructions"],
                     title="Figure 2 — configuration cost per transformation path"),
    )
    cold = costs["stage III: cold (full dynamic synthesis)"]
    warm = costs["stage III: warm reconfigurable template"]
    static = costs["stage III: warm static template"]
    assert warm < cold / 2           # cache cuts configuration delay
    assert static < warm             # full customization is cheapest


@pytest.mark.timing
def test_fig2_template_hit_costs_the_host_less_than_a_miss():
    """... and a hit is cheaper than a miss on the machine running it too."""
    miss_s, hit_s = instantiation_host_time()
    assert hit_s < HIT_OVER_MISS_HOST_TIME * miss_s
