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
  >= 1.5x, p99 by at least no-worse-than +10%.  Both are read the way
  ``bench/stats.py`` summarises the bench: ``PAIRS`` paired runs, gated
  on the median pair ratio and reported with its quartiles.  In one pair
  each route drives its own copy of the world and the two send in turn,
  message by message (AB, BA, AB, ...), so drift in steal or clock rate
  on a shared box lands on both routes and cancels inside the pair.
* **identity** — delivered count/bytes, final sim clock, PDUs sent,
  retransmissions, and both hosts' retired instruction counters must be
  bit-identical across the two routes.  Codegen is a wall-clock
  optimisation, never a behaviour change.
"""

import statistics
import time

import pytest

from repro.unites.obs.telemetry import TELEMETRY
from repro.unites.present import render_table

from benchmarks.conference import (
    MESSAGE, MESSAGES, SEND_INTERVAL, START, ConferenceWorld,
    teleconference_config)
from benchmarks.conftest import record

PAIRS = 10
MIN_P50_SPEEDUP = 1.50          #: rendered p50 must beat general by 1.5x
MAX_P99_RATIO = 1.10            #: rendered p99 no worse than general +10%


def _percentile(sorted_samples, q):
    idx = min(len(sorted_samples) - 1, max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[idx]


class _World(ConferenceWorld):
    """``general`` sends through the executor's general route instead of
    ``send``."""

    def __init__(self, cfg, general):
        super().__init__(cfg)
        self.send = (self.sender.executor.general_send if general
                     else self.sender.send)
        self.samples = []


def _pair(cfg):
    """The two routes' worlds, sending in turn; (general, rendered)."""
    general, rendered = _World(cfg, True), _World(cfg, False)
    perf = time.perf_counter
    t = START
    for i in range(MESSAGES):
        t += SEND_INTERVAL
        for w in (general, rendered) if i % 2 else (rendered, general):
            w.sim.run(until=t)
            t0 = perf()
            w.send(MESSAGE)
            w.samples.append(perf() - t0)
    for w in (general, rendered):
        w.sim.run(until=t + 2.0)
        w.samples.sort()
    return general, rendered


@pytest.mark.timing
def test_generated_send_latency(benchmark):
    TELEMETRY.disable()
    TELEMETRY.reset()
    cfg = teleconference_config()

    pairs = benchmark.pedantic(lambda: [_pair(cfg) for _ in range(PAIRS)],
                               rounds=1, iterations=1)
    fast = min(r.sender.executor.fast_sends for _, r in pairs)
    identities = {w.identity() for pair in pairs for w in pair}
    speedups = [_percentile(g.samples, 0.50) / _percentile(r.samples, 0.50)
                for g, r in pairs]
    p99_ratios = [_percentile(r.samples, 0.99) / _percentile(g.samples, 0.99)
                  for g, r in pairs]
    s_q1, speedup, s_q3 = statistics.quantiles(speedups, n=4)
    r_q1, p99_ratio, r_q3 = statistics.quantiles(p99_ratios, n=4)
    rows = [
        {"executor": route,
         "p50_us": statistics.median(_percentile(p[k].samples, 0.50) for p in pairs) * 1e6,
         "p99_us": statistics.median(_percentile(p[k].samples, 0.99) for p in pairs) * 1e6}
        for k, route in enumerate(("general route", "rendered closure"))
    ]
    record(
        benchmark,
        render_table(
            rows, ["executor", "p50_us", "p99_us"],
            title=f"bytes-plane send latency — teleconference, {MESSAGES} "
                  f"sends, {PAIRS} pairs; median pair p50 speedup "
                  f"{speedup:.2f}x (IQR {s_q1:.2f}–{s_q3:.2f}), p99 ratio "
                  f"{p99_ratio:.2f} (IQR {r_q1:.2f}–{r_q3:.2f})",
        ),
        ratio=1.0 / speedup, speedup_q1=s_q1, speedup_median=speedup,
        speedup_q3=s_q3, p99_ratio_median=p99_ratio,
    )
    assert fast == MESSAGES, (
        f"generated fast path engaged on only {fast}/{MESSAGES} sends — "
        f"the latency comparison would be measuring the fallback"
    )
    assert all(g.sender.executor.fast_sends == 0 for g, _ in pairs), (
        "the general route took the rendered closure")
    assert len(identities) == 1, (
        f"executors diverged in simulated results: {identities}"
    )
    assert speedup >= MIN_P50_SPEEDUP, (
        f"generated p50 speedup {speedup:.2f}x in the median pair "
        f"(IQR {s_q1:.2f}–{s_q3:.2f}) below the {MIN_P50_SPEEDUP}x bar"
    )
    assert p99_ratio <= MAX_P99_RATIO, (
        f"rendered p99 is {p99_ratio:.2f}x general in the median pair "
        f"(IQR {r_q1:.2f}–{r_q3:.2f}; bound {MAX_P99_RATIO}x)"
    )
